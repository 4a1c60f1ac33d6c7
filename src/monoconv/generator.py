"""Generators of continuous composition flows on the disk, in Herglotz form.

A flow (K_t) of disk self-maps fixing 0 solves dK_t/dt = -K_t u(K_t) for
a holomorphic u with Re u >= 0.  Such u has the representation

    u(z) = i b + sum_j w_j (omega_j + z) / (omega_j - z),

with b real and nonnegative weights w_j attached to points omega_j on the
circle.  This module keeps the measure part atomic; continuous measures
are approximated by atoms (see :meth:`HerglotzGenerator.uniform`).

The associated vector field is v(z) = -z u(z), with v(0) = 0 and
v'(0) = -u(0).
"""

from __future__ import annotations

import numpy as np

from ._util import canonical_angle
from .errors import DomainError
from .series import DEFAULT_ORDER, TruncatedSeries


class HerglotzGenerator:
    """Flow generator (b, rho) with rho a finite atomic measure on the circle.

    Parameters
    ----------
    b : real
        Imaginary offset; u(0) = i*b + total mass of rho.
    rho : iterable of (angle, weight)
        Atoms of the representing measure, weights >= 0.
    """

    __slots__ = ("b", "_angles", "_weights", "_omega", "_cweights")

    def __init__(self, b: float = 0.0, rho=()):
        b = float(b)
        pairs = list(rho)
        angles = np.array([t for t, _ in pairs], dtype=float)
        weights = np.array([w for _, w in pairs], dtype=float)
        if not (np.isfinite(b) and np.isfinite(angles).all() and np.isfinite(weights).all()):
            raise ValueError("Herglotz b, angles and weights must be finite")
        angles = np.array([canonical_angle(t) for t in angles], dtype=float)
        if np.any(weights < 0):
            raise ValueError("Herglotz weights must be nonnegative")
        angles.setflags(write=False)
        weights.setflags(write=False)
        self.b = b
        self._angles = angles
        self._weights = weights
        # eval-time constants: the atoms omega_j = e^{i angle_j} and complex weights
        self._omega = np.exp(1j * angles)
        self._cweights = weights.astype(complex)
        self._omega.setflags(write=False)
        self._cweights.setflags(write=False)

    @classmethod
    def uniform(cls, mass: float = 1.0, n_atoms: int = 64) -> "HerglotzGenerator":
        """n_atoms equal atoms at roots of unity with the given total mass.

        Approximates the constant generator u = mass: the exact value is
        u(z) = mass * (1 + 2 z^n / (1 - z^n)), so the deviation from the
        constant is below 1e-12 for |z| <= 0.65 at the default n = 64.
        ``n_atoms`` must be >= 1 (a ``ValueError`` otherwise).
        """
        n = int(n_atoms)
        if n < 1:
            raise ValueError("a uniform generator needs at least one atom")
        w = mass / n
        return cls(0.0, [(2.0 * np.pi * j / n, w) for j in range(n)])

    @property
    def mass(self) -> float:
        return float(self._weights.sum())

    @property
    def beta(self) -> complex:
        """u(0) = i*b + total mass."""
        return complex(1j * self.b + self.mass)

    # -- pointwise ----------------------------------------------------------

    def eval(self, z):
        """u(z) for |z| < 1.  Re u(z) >= 0 whenever all weights are >= 0."""
        z = np.asarray(z, dtype=complex)
        if (np.abs(z) >= 1.0).any():
            raise DomainError("generator is defined on the open unit disk")
        omega = self._omega
        terms = (omega + z[..., None]) / (omega - z[..., None])
        val = 1j * self.b + terms @ self._cweights
        return val if val.ndim else complex(val)

    def vector_field_at(self, z):
        """v(z) = -z u(z)."""
        out = -np.asarray(z, dtype=complex) * self.eval(z)
        return out if np.ndim(out) else complex(out)

    # -- series -------------------------------------------------------------

    def series(self, n: int = DEFAULT_ORDER) -> TruncatedSeries:
        """Taylor coefficients of u: u_0 = beta, u_m = 2 sum_j w_j e^{-i m angle_j}."""
        c = np.zeros(n + 1, dtype=np.complex128)
        c[0] = self.beta
        m = np.arange(1, n + 1)
        c[1:] = 2.0 * np.exp(-1j * np.outer(m, self._angles)) @ self._cweights
        return TruncatedSeries(c)

    def __repr__(self):
        return f"HerglotzGenerator(b={self.b!r}, atoms={self._weights.size}, mass={self.mass:.6g})"
