"""Generators of continuous composition flows on the disk, in Herglotz form.

A flow (K_t) of disk self-maps fixing 0 solves dK_t/dt = -K_t u(K_t) for
a holomorphic u with Re u >= 0.  Such u has the representation

    u(z) = i b + sum_j w_j (omega_j + z) / (omega_j - z),

with b real and nonnegative weights w_j attached to points omega_j on the
circle.  This module keeps the measure part atomic; continuous measures
are approximated by atoms (see :meth:`HerglotzGenerator.uniform`).  Atoms
are checked as a CircleMeasure's, and u_m = 2 conj(m_m) from their moments.

The associated vector field is v(z) = -z u(z), with v(0) = 0 and
v'(0) = -u(0).
"""

from __future__ import annotations

import math

import numpy as np

from ._util import atom_moments, atoms
from .errors import DomainError
from .series import DEFAULT_ORDER, TruncatedSeries

# Up to this many atoms u is summed in Python on a complex argument, else
# by NumPy: on one x86-64 core (CPython 3.11, NumPy 2.4) a call costs about
# 0.4 + 0.2 n us against a flat 5 us, which break even near n = 24.
_PYTHON_SUM_MAX_ATOMS = 20


class HerglotzGenerator:
    """Flow generator (b, rho) with rho a finite atomic measure on the circle.

    Parameters
    ----------
    b : real
        Imaginary offset; u(0) = i*b + total mass of rho.
    rho : iterable of (angle, weight)
        Atoms of the representing measure, weights >= 0.
    """

    __slots__ = ("b", "_angles", "_weights", "_omega", "_shift", "_two_w_omega", "_pairs")

    def __init__(self, b: float = 0.0, rho=()):
        b = float(b)
        if not math.isfinite(b):
            raise ValueError("Herglotz b must be finite")
        pairs = list(rho)
        self.b = b
        self._angles, self._weights = atoms([t for t, _ in pairs], [w for _, w in pairs])
        # (omega + z)/(omega - z) = -1 + 2 omega/(omega - z), so with W the total
        # mass u(z) = (i b - W) + sum_j 2 w_j omega_j / (omega_j - z): one
        # division per atom, with the constants taken here
        self._omega = np.exp(1j * self._angles)  # the atoms e^{i angle_j}
        self._two_w_omega = 2.0 * self._weights * self._omega
        self._shift = complex(1j * b - self._weights.sum())
        for arr in (self._omega, self._two_w_omega):
            arr.setflags(write=False)
        self._pairs = None  # the (omega_j, 2 w_j omega_j) as complex pairs, for few atoms
        if self._omega.size <= _PYTHON_SUM_MAX_ATOMS:
            self._pairs = tuple(zip(self._omega.tolist(), self._two_w_omega.tolist()))

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

    def _u(self, z):
        """u(z) in the one-division form, without a disk check: at a complex
        array, or at a Python complex as a NumPy scalar."""
        column = z if type(z) is complex else z[..., None]  # the atoms run along the last axis
        return self._shift + (1.0 / (self._omega - column)) @ self._two_w_omega

    def eval(self, z):
        """u(z) for |z| < 1 (a ``DomainError`` otherwise).  Re u(z) >= 0
        whenever all weights are >= 0."""
        z = np.asarray(z, dtype=complex)
        if (np.abs(z) >= 1.0).any():
            raise DomainError("generator is defined on the open unit disk")
        val = self._u(z)
        return val if val.ndim else complex(val)

    def vector_field_at(self, z):
        """v(z) = -z u(z), without a disk check.

        The integrator calls this at trial stage inputs, which may lie off
        the disk; it rejects such steps and discards their values.  Off the
        disk the values are those of the formula, or inf/nan at an atom.
        It passes a Python ``complex`` when it integrates one point and a
        1-d array otherwise; a ``complex`` takes scalar arithmetic and
        returns a ``complex``, equal to the array form up to rounding, and
        never raises: up to ``_PYTHON_SUM_MAX_ATOMS`` atoms u is summed in
        Python, else (and at an atom, to give the inf/nan) by NumPy.
        """
        if type(z) is complex:
            if self._pairs is not None:
                acc = 0j
                try:
                    for omega, c in self._pairs:
                        acc += (1.0 / (omega - z)) * c
                except ZeroDivisionError:  # z is an atom
                    pass
                else:
                    return -z * (self._shift + acc)
            return -z * complex(self._u(z))
        z = np.asarray(z, dtype=complex)
        out = -z * self._u(z)
        return out if out.ndim else complex(out)

    # -- series -------------------------------------------------------------

    def series(self, n: int = DEFAULT_ORDER) -> TruncatedSeries:
        """Taylor coefficients of u: u_0 = beta, u_m = 2 sum_j w_j e^{-i m angle_j}."""
        c = np.zeros(n + 1, dtype=np.complex128)
        c[0] = self.beta
        c[1:] = 2 * np.conj(atom_moments(self._angles, self._weights, n))
        return TruncatedSeries(c)

    def __repr__(self):
        return f"HerglotzGenerator(b={self.b!r}, atoms={self._weights.size}, mass={self.mass:.6g})"
