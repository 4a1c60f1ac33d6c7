"""Decide whether a K-transform embeds into a continuous composition flow.

A flow member K = K_t0 with generator u has the multiplier lambda = K'(0)
= e^{-t0 u(0)}, 0 < |lambda| < 1.  Its Koenigs function h, the solution of
h(K(z)) = lambda h(z) with h'(0) = 1 (G. Koenigs, Ann. Sci. ENS 1, 1884),
linearizes the whole flow (E. Berkson & H. Porta, Michigan Math. J. 25,
1978), so u(z)/u(0) = h(z)/(z h'(z)) exactly.  h comes from one
triangular solve on the power table of K,

    h_m = sum_{k<m} h_k [K^k]_m / (lambda - lambda^m),

and u/u(0) = h(K(z)) / (z K'(z) h'(K(z))) is read one step along the
equation, where the truncated h is evaluated nearer the origin.

The surviving data is the product t0*u(0) = -log K'(0) (up to a 2*pi*i*k
branch) together with the direction of u(0); the scale split between t0
and u(0) is pure time reparameterization.  We canonicalize t0 = |t0*u(0)|
and report the branch index so the choice is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import TWO_PI, canonical_angle, ring_grid
from .errors import DomainError
from .generator import HerglotzGenerator
from .measure import KTransform
from .series import TruncatedSeries, _fill_power_columns

__all__ = ["EmbeddingVerdict", "embedding_test", "dirac_embedding", "DiracEmbedding", "default_grid"]

_DERIV_TOL = 1e-9
_ROTATION_TOL = 1e-12
# log branches 0, +-1, ..., +-_BRANCH_BOUND are searched; a branch passes
# when Re(beta u/u(0)) >= -_POSITIVITY_TOL on the grid
_BRANCH_BOUND = 8
_POSITIVITY_TOL = 1e-6

_RING_RADII = (0.2, 0.4, 0.6)
_RING_ANGLES = 8
# the log branches in search order 0, 1, -1, 2, -2, ...
_BRANCHES = np.array([0] + [sign * j for j in range(1, _BRANCH_BOUND + 1) for sign in (1, -1)])
# nodes of the argument-principle count of the zeros of K' inside the outer ring
_CRITICAL_NODES = 256
_CRITICAL_RING = ring_grid(_RING_RADII[-1:], _CRITICAL_NODES)


def default_grid() -> np.ndarray:
    """24 points on three rings of radius 0.2, 0.4 and 0.6."""
    return ring_grid(_RING_RADII, _RING_ANGLES)


@dataclass(frozen=True)
class EmbeddingVerdict:
    """Result of :func:`embedding_test`.

    ``u_estimate`` samples the normalized generator (value 1 at the
    origin) on ``grid``; ``product`` is t0 * u(0) for the selected log
    branch, with t0 = |product| and ``beta`` the unit-modulus direction.
    ``iterations`` is the number of times K was applied to the grid: 1
    once h is solved for, 0 on the earlier exits.

    ``reason`` is ``ok``, ``dirac_special_case`` (K is a rotation, the
    transform of a point mass), ``derivative_vanishes`` (K' = 0 at the
    origin, at a grid point, or inside the outer ring, where a critical
    point makes K non-univalent), ``limit_diverges`` (|K'(0)| >= 1 and K
    is not a rotation, so by the Schwarz lemma K is not a self-map of the
    disk) or ``positivity_fails`` (none of the branches 0, +-1, ..., +-8
    has Re(beta u/u(0)) >= -1e-6 on the grid).
    """

    embeddable: bool
    reason: str
    grid: tuple = ()
    u_estimate: tuple | None = None
    t0: float | None = None
    beta: complex | None = None
    branch_index: int | None = None
    branches_found: tuple = ()
    product: complex | None = None
    iterations: int = 0


def embedding_test(k: KTransform) -> EmbeddingVerdict:
    """Run the embeddability test on ``k``, which must have order >= 1.

    Point masses are recognized and dispatched to the special verdict (see
    :func:`dirac_embedding` for the full countable family).  The derivative
    and positivity checks run on :func:`default_grid`; the log branches
    0, +-1, ..., +-8 are searched, and a branch passes when
    Re(beta u/u(0)) >= -1e-6 at every grid point.  All 17 branches are
    tested in one (17 x 24) array pass, and K' is evaluated once, on the
    grid and the 256-node ring of the critical-point count together.
    """
    if k.order < 1:
        raise DomainError("the embedding test needs a K-transform of order >= 1")
    rot = _rotation_angle(k)
    if rot is not None:
        return _dirac_verdict(rot)

    c1 = k.derivative_at_zero
    if abs(c1) <= _DERIV_TOL:
        return EmbeddingVerdict(embeddable=False, reason="derivative_vanishes")
    if abs(c1) >= 1.0:
        return EmbeddingVerdict(embeddable=False, reason="limit_diverges")

    pts = default_grid()
    # K' on the grid and on the critical-point ring, in one evaluation
    dk, ring = np.split(k.derivative_eval(np.concatenate((pts, _CRITICAL_RING))), [pts.size])
    if np.min(np.abs(dk)) <= _DERIV_TOL:
        return EmbeddingVerdict(embeddable=False, reason="derivative_vanishes")

    w = k.eval(pts)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = _koenigs_series(k)
        u_norm = h(w) / (pts * dk * h.derivative()(w))

    principal = -np.log(c1)  # |c1| < 1, so every branch of the product is nonzero
    products = principal - TWO_PI * 1j * _BRANCHES
    # Re(beta u/u(0)) of every branch (rows) at every grid point (columns)
    real_parts = np.real((products / np.abs(products))[:, None] * u_norm)
    passing = _BRANCHES[np.min(real_parts, axis=1) >= -_POSITIVITY_TOL].tolist()
    if not passing or _has_critical_point(ring):
        return EmbeddingVerdict(
            embeddable=False,
            reason="derivative_vanishes" if passing else "positivity_fails",
            grid=tuple(pts),
            u_estimate=tuple(u_norm),
            iterations=1,
        )
    product = principal - TWO_PI * 1j * passing[0]
    t0 = abs(product)
    return EmbeddingVerdict(
        embeddable=True,
        reason="ok",
        grid=tuple(pts),
        u_estimate=tuple(u_norm),
        t0=t0,
        beta=complex(product / t0),
        branch_index=passing[0],
        branches_found=tuple(passing),
        product=complex(product),
        iterations=1,
    )


def _koenigs_series(k: KTransform) -> TruncatedSeries:
    """The Koenigs function of ``k`` through its order, for 0 < |K'(0)| < 1.

    The power table of K fills a column at a time as the solve reaches it,
    as in :func:`~monoconv.semigroup.flow_coefficients`.
    """
    c = k.series.coeffs
    n = k.order
    lam = c[1]
    table = np.zeros((n + 1, n + 1), dtype=np.complex128)  # table[k, m] = [K^k]_m
    table[1] = c
    h = np.zeros(n + 1, dtype=np.complex128)
    h[1] = 1.0
    for m in range(2, n + 1):
        _fill_power_columns(table, m, m + 1)
        h[m] = np.dot(h[1:m], table[1:m, m]) / (lam - lam**m)
    return TruncatedSeries(h)


def _has_critical_point(d: np.ndarray) -> bool:
    """Whether K' has a zero inside the outer grid ring (or on it), from ``d``, K' on ``_CRITICAL_RING``.

    By the argument principle the winding number of K' around that circle
    counts its zeros inside; a zero on the circle makes it NaN.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        winding = np.sum(np.angle(np.roll(d, -1) / d)) / TWO_PI
    return not abs(winding) < 0.5


def _rotation_angle(k: KTransform):
    """Angle of K if it is exactly a rotation z -> e^{i phi} z, else None."""
    c = k.series.coeffs
    c1 = c[1]
    if abs(abs(c1) - 1.0) > _ROTATION_TOL:
        return None
    if np.sum(np.abs(c[2:])) > _ROTATION_TOL:
        return None
    return canonical_angle(float(np.angle(c1)))


def _dirac_verdict(angle: float) -> EmbeddingVerdict:
    if angle == 0.0:
        # identity transform: the constant flow, embedded at t0 = 0
        return EmbeddingVerdict(
            embeddable=True,
            reason="dirac_special_case",
            t0=0.0,
            beta=None,
            branch_index=0,
            product=0j,
        )
    product = -1j * angle  # branch 0 of t0*u(0); u is the constant -i*angle
    return EmbeddingVerdict(
        embeddable=True,
        reason="dirac_special_case",
        t0=abs(product),
        beta=product / abs(product),
        branch_index=0,
        product=product,
    )


@dataclass(frozen=True)
class DiracEmbedding:
    """The countable family of flows embedding a point mass at e^{i angle}.

    For every integer k the rotation flow with rate angle + 2*pi*k reaches
    the point mass at t = 1; consecutive family members differ by rotation
    rate 2*pi.
    """

    angle: float

    def rate(self, k: int = 0) -> float:
        return self.angle + TWO_PI * k

    def flow(self, t: float, z: complex, k: int = 0) -> complex:
        """K_t(z) = e^{i t (angle + 2 pi k)} z."""
        return complex(np.exp(1j * t * self.rate(k)) * z)

    def generator(self, k: int = 0) -> HerglotzGenerator:
        """The purely imaginary constant generator of family member k."""
        return HerglotzGenerator(b=-self.rate(k), rho=())


def dirac_embedding(angle: float) -> DiracEmbedding:
    """Embedding family descriptor for the point mass at e^{i angle}."""
    return DiracEmbedding(canonical_angle(angle))
