"""Probability measures on the unit circle and their K-transforms.

A measure is represented either by weighted atoms (angle, weight) or by a
finite moment sequence m_k = integral of x^k; atoms are checked and summed
as Herglotz atoms are (:mod:`monoconv.generator`).  The moment generating
function psi(z) = sum_{k>=1} m_k z^k determines the K-transform
K = psi / (1 + psi), a holomorphic self-map of the disk with K(0) = 0 that
characterizes the measure completely.  Since (1 + psi)(1 - K) = 1, each
conversion between the two is one series reciprocal.

A :class:`KTransform` is its truncated Taylor series and nothing else, so
a transform of order N determines the moments m_1..m_N and no more.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import TWO_PI, atom_moments, atoms, integral_at_least, ring_grid, toeplitz_from_moments
from .errors import DomainError
from .series import DEFAULT_ORDER, TruncatedSeries, horner

_WEIGHT_TOL = 1e-12
_MOMENT_TOL = 1e-9


class CircleMeasure:
    """A probability measure on the unit circle.

    Construct through :meth:`from_atoms`, :meth:`from_moments`,
    :meth:`dirac`, :meth:`haar` or :meth:`uniform_atoms`.  Instances are
    immutable and safe to share.
    """

    __slots__ = ("_angles", "_weights", "_moments")

    def __init__(self, angles=None, weights=None, moments=None):
        if moments is not None:
            if angles is not None or weights is not None:
                raise ValueError("give either atoms or moments, not both")
            m = np.array(moments, dtype=np.complex128)
            if m.ndim != 1 or m.size == 0:
                raise ValueError("moment sequence must be a non-empty 1-d sequence")
            if not np.isfinite(m).all():
                raise ValueError("moments must be finite")
            if np.max(np.abs(m)) > 1.0 + _MOMENT_TOL:
                raise ValueError("moments of a circle measure must satisfy |m_k| <= 1")
            m.setflags(write=False)
            self._angles = None
            self._weights = None
            self._moments = m
            return
        a, w = atoms(angles, weights)
        if a.size == 0:
            raise ValueError("angles and weights must be 1-d sequences of equal length")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"atom weights must sum to 1 (got {float(w.sum())!r})")
        self._angles = a
        self._weights = w
        self._moments = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_atoms(cls, angles, weights) -> "CircleMeasure":
        return cls(angles=angles, weights=weights)

    @classmethod
    def from_moments(cls, moments) -> "CircleMeasure":
        return cls(moments=moments)

    @classmethod
    def dirac(cls, angle: float) -> "CircleMeasure":
        """Point mass at exp(i*angle)."""
        return cls(angles=[angle], weights=[1.0])

    @classmethod
    def haar(cls, order: int = DEFAULT_ORDER) -> "CircleMeasure":
        """Normalized arc length, as the all-zero moment sequence m_1..m_order."""
        return cls(moments=np.zeros(order))

    @classmethod
    def uniform_atoms(cls, m: int) -> "CircleMeasure":
        """m equal atoms at the m-th roots of unity (atomic Haar quadrature)."""
        if m < 1:
            raise ValueError("need at least one atom")
        return cls(angles=TWO_PI * np.arange(m) / m, weights=np.full(m, 1.0 / m))

    # -- structure ---------------------------------------------------------

    @property
    def is_atomic(self) -> bool:
        return self._angles is not None

    @property
    def atoms(self):
        """(angles, weights) arrays; raises for moment-represented measures."""
        if not self.is_atomic:
            raise DomainError("measure is represented by moments, not atoms")
        return self._angles, self._weights

    @property
    def n_moments(self) -> int:
        """Largest moment order available without recomputation limits."""
        if self.is_atomic:
            return np.iinfo(np.int64).max
        return self._moments.size

    def moments(self, n: int) -> np.ndarray:
        """Moments m_1..m_n; for atomic measures m_k = sum_j w_j e^{i k angle_j}."""
        if n < 1:
            raise ValueError("moment order must be >= 1")
        if self.is_atomic:
            return atom_moments(self._angles, self._weights, n)
        if n > self._moments.size:
            raise DomainError(
                f"measure stores {self._moments.size} moments, {n} requested"
            )
        return self._moments[:n].copy()

    def psi_series(self, n: int = DEFAULT_ORDER) -> TruncatedSeries:
        """Moment generating series psi(z) = sum_{k=1..n} m_k z^k."""
        c = np.zeros(n + 1, dtype=np.complex128)
        c[1:] = self.moments(n)
        return TruncatedSeries(c)

    def __repr__(self):
        if self.is_atomic:
            return f"CircleMeasure(atoms={self._angles.size})"
        return f"CircleMeasure(moments={self._moments.size})"


@dataclass(frozen=True)
class KTransform:
    """A holomorphic self-map of the disk with K(0) = 0, held as a series.

    The series is the whole transform: a point mass, Haar measure and the
    uniform measure on the d-th roots of unity have the polynomial
    transforms e^{i angle} z, 0 and z^d, which a truncated series holds
    exactly.  Coefficients must be finite.
    """

    series: TruncatedSeries

    def __post_init__(self):
        c = self.series.coeffs
        if not np.isfinite(c).all():
            raise ValueError("K-transform coefficients must be finite")
        if c[0] != 0:
            raise DomainError("a K-transform must vanish at the origin")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coefficients(cls, coeffs) -> "KTransform":
        return cls(TruncatedSeries(coeffs))

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "KTransform":
        return cls(TruncatedSeries.identity(order))

    @classmethod
    def dirac(cls, angle: float, order: int = DEFAULT_ORDER) -> "KTransform":
        """K(z) = e^{i*angle} z, the transform of a point mass."""
        return cls(np.exp(1j * angle) * TruncatedSeries.identity(order))

    @classmethod
    def haar(cls, order: int = DEFAULT_ORDER) -> "KTransform":
        return cls(TruncatedSeries.zero(order))

    @classmethod
    def monomial(cls, degree: int, order: int = DEFAULT_ORDER) -> "KTransform":
        """K(z) = z^degree, the transform of the uniform measure on the
        degree-th roots of unity."""
        return cls(TruncatedSeries.monomial(degree, order))

    # -- evaluation --------------------------------------------------------

    @property
    def order(self) -> int:
        return self.series.order

    def eval(self, z):
        """K(z) at a scalar or an array, by Horner's rule on the series."""
        return self.series(z)

    @cached_property
    def _derivative(self) -> TruncatedSeries:
        return self.series.derivative()

    def derivative_eval(self, z):
        """K'(z) at a scalar or an array, by Horner's rule on the derivative.

        The derivative series is built once per transform, on first use.
        """
        return self._derivative(z)

    @property
    def derivative_at_zero(self) -> complex:
        return self.series[1]


# -- transforms ------------------------------------------------------------


def k_transform(mu: CircleMeasure, n: int | None = None) -> KTransform:
    """K-transform of ``mu`` through order ``n``: K = 1 - 1/(1 + psi).

    When ``n`` is omitted it defaults to 32, capped at the stored moment
    count for moment-represented measures.  An ``n`` below 1 is a
    ``ValueError``.
    """
    if n is None:
        n = DEFAULT_ORDER if mu.is_atomic else min(DEFAULT_ORDER, mu.n_moments)
    if n < 1:
        raise ValueError(f"truncation order must be >= 1, got {n}")
    if mu.is_atomic:
        angles, _ = mu.atoms
        if angles.size == 1:  # exactly e^{i angle} z; 1 - 1/(1 + psi) leaves rounding
            return KTransform.dirac(angles[0], n)
    return KTransform(1 - (1 + mu.psi_series(n)).reciprocal())


def moments_from_k(k: KTransform, n: int = DEFAULT_ORDER) -> np.ndarray:
    """Moments m_1..m_n of the measure with K-transform ``k``.

    Inverts K = psi/(1+psi) as 1 + psi = 1/(1-K) and reads the coefficients.
    An ``n`` below 1 is a ``ValueError``.
    """
    if n < 1:
        raise ValueError(f"truncation order must be >= 1, got {n}")
    if k.series.order < n:
        raise DomainError(
            f"K-transform series has order {k.series.order}, cannot produce {n} moments"
        )
    return (1 - k.series.truncate(n)).reciprocal().coeffs[1:].copy()


@dataclass(frozen=True)
class KValidationReport:
    """Outcome of the three K-transform validity checks."""

    k_at_zero_ok: bool
    schur_bound_ok: bool
    toeplitz_psd_ok: bool
    max_grid_modulus: float
    min_toeplitz_eigenvalue: float

    @property
    def all_ok(self) -> bool:
        return self.k_at_zero_ok and self.schur_bound_ok and self.toeplitz_psd_ok


def validate_k(k) -> KValidationReport:
    """Diagnostic checks that ``k`` looks like the transform of a measure.

    Checks K(0) = 0, |K| < 1 + 1e-9 on three rings of radius 0.3/0.6/0.9
    with 64 angles each, and positive semidefiniteness (eigenvalue floor
    -1e-9) of the Toeplitz moment matrix built from the inverted moments.
    Accepts a :class:`KTransform` or a bare :class:`TruncatedSeries` (the
    latter so that candidates violating K(0) = 0 can still be diagnosed).
    """
    series = k if isinstance(k, TruncatedSeries) else k.series
    k_at_zero_ok = series.coeffs[0] == 0

    vals = series(ring_grid((0.3, 0.6, 0.9), 64))
    max_mod = float(np.max(np.abs(vals)))
    schur_ok = max_mod < 1.0 + 1e-9

    toeplitz_ok = k_at_zero_ok
    min_eig = np.inf if k_at_zero_ok else -np.inf
    # m_1..m_N fill a Toeplitz matrix of size N // 2 + 1, which is 1 below order 2
    if k_at_zero_ok and series.order >= 2:
        m = moments_from_k(KTransform(series), series.order)
        min_eig = float(np.linalg.eigvalsh(toeplitz_from_moments(m, m.size // 2 + 1))[0])
        toeplitz_ok = min_eig >= -1e-9

    return KValidationReport(
        k_at_zero_ok=bool(k_at_zero_ok),
        schur_bound_ok=bool(schur_ok),
        toeplitz_psd_ok=bool(toeplitz_ok),
        max_grid_modulus=max_mod,
        min_toeplitz_eigenvalue=min_eig,
    )


def poisson_density(mu: CircleMeasure, r: float, grid_size: int) -> np.ndarray:
    """Poisson-kernel smoothed density on the uniform angle grid.

    Returns p(theta_j) = 1 + 2 sum_k Re(m_k r^k e^{-i k theta_j}) for
    theta_j = 2*pi*j/grid_size, a density with respect to d(theta)/(2*pi).
    The trapezoid integral over the grid equals 1 exactly as long as
    grid_size exceeds the number of moments used.  ``grid_size`` must be an
    integer >= 1.
    """
    if not 0.0 < r < 1.0:
        raise DomainError("Poisson radius must lie in (0, 1)")
    grid_size = integral_at_least(grid_size, "grid_size", 1)
    if mu.is_atomic:
        # pick enough moments for the geometric tail to fall below 1e-9
        n = DEFAULT_ORDER
        while 2.0 * r ** (n + 1) / (1.0 - r) > 1e-9 and n < 4096:
            n *= 2
    else:
        n = mu.n_moments
    coeffs = np.concatenate(([0.0], mu.moments(n)))
    z = r * np.exp(-1j * TWO_PI * np.arange(grid_size) / grid_size)
    return 1.0 + 2.0 * np.real(horner(coeffs, z))
