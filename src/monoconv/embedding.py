"""Decide whether a K-transform embeds into a continuous composition flow.

The test iterates the map on a grid of disk points.  If the measure is
embeddable, the normalized ratios

    r_n(z) = -K^n(z) / (K^n)'(z)

converge locally uniformly to -z u(z)/u(0), where u generates the flow.
Convergence is operationalized as a Cauchy criterion on the finite grid
(the limit statement carries no rate), the derivative of the iterate is
accumulated as a running product of K' along the orbit for stability, and
the removable singularity of -r(z)/z at 0 is resolved by Richardson
extrapolation over the innermost grid rings.

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

__all__ = ["EmbeddingVerdict", "embedding_test", "dirac_embedding", "DiracEmbedding", "default_grid"]

_DERIV_TOL = 1e-9
_ROTATION_TOL = 1e-12

_RING_RADII = (0.2, 0.4, 0.6)
_RING_ANGLES = 8
# Richardson weight of the two innermost rings: an angle average over
# _RING_ANGLES points at radius r is u(0) + O(r^_RING_ANGLES).
_RICHARDSON_SCALE = (_RING_RADII[1] / _RING_RADII[0]) ** _RING_ANGLES


def default_grid() -> np.ndarray:
    """24 points on three rings of radius 0.2, 0.4 and 0.6."""
    return ring_grid(_RING_RADII, _RING_ANGLES)


@dataclass(frozen=True)
class EmbeddingVerdict:
    """Result of :func:`embedding_test`.

    ``u_estimate`` samples the normalized generator (value 1 at the
    origin) on ``grid``; ``product`` is t0 * u(0) for the selected log
    branch, with t0 = |product| and ``beta`` the unit-modulus direction.
    """

    embeddable: bool
    reason: str  # ok | derivative_vanishes | limit_diverges | positivity_fails | dirac_special_case
    grid: tuple = ()
    u_estimate: tuple | None = None
    t0: float | None = None
    beta: complex | None = None
    branch_index: int | None = None
    branches_found: tuple = ()
    product: complex | None = None
    iterations: int = 0


def embedding_test(
    k: KTransform,
    max_iter: int = 500,
    grid=None,
    conv_tol: float = 1e-9,
    branch_bound: int = 8,
    positivity_tol: float = 1e-6,
) -> EmbeddingVerdict:
    """Run the embeddability test on ``k``.

    Point masses are recognized and dispatched to the special verdict (see
    :func:`dirac_embedding` for the full countable family).  Grid points
    supplied by the caller are added to the built-in rings for the
    derivative, convergence and positivity checks; the normalization at 0
    always uses the built-in rings.  ``k`` must have order >= 1, and the
    limits must let the test run: ``max_iter >= 1``, ``conv_tol`` finite
    and > 0, ``branch_bound >= 0`` and ``positivity_tol`` finite and >= 0
    (a ``ValueError`` otherwise).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0.0 < conv_tol < np.inf:
        raise ValueError("conv_tol must be finite and > 0")
    if branch_bound < 0:
        raise ValueError("branch_bound must be >= 0")
    if not 0.0 <= positivity_tol < np.inf:
        raise ValueError("positivity_tol must be finite and >= 0")
    if k.order < 1:
        raise DomainError("the embedding test needs a K-transform of order >= 1")
    rot = _rotation_angle(k)
    if rot is not None:
        return _dirac_verdict(rot)

    c1 = k.derivative_at_zero
    if abs(c1) <= _DERIV_TOL:
        return EmbeddingVerdict(embeddable=False, reason="derivative_vanishes")

    base = default_grid()
    if grid is None:
        pts = base
    else:
        extra = np.asarray(grid, dtype=complex).ravel()
        if np.any(np.abs(extra) >= 1.0):
            raise DomainError("grid points must lie inside the open unit disk")
        extra = extra[np.abs(extra) > 1e-8]  # 0 is the removable singularity of r(z)/z
        pts = np.concatenate([base, extra])

    if np.min(np.abs(k.derivative_eval(pts))) <= _DERIV_TOL:
        return EmbeddingVerdict(embeddable=False, reason="derivative_vanishes")

    # iterate: w_n = K^n(z), prod_n = (K^n)'(z) as a running product
    w = pts.astype(complex)
    prod = np.ones_like(w)
    r_prev = -pts.astype(complex)
    converged = False
    n = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(1, max_iter + 1):
            dk = k.derivative_eval(w)
            if np.min(np.abs(dk)) <= _DERIV_TOL:
                return EmbeddingVerdict(
                    embeddable=False, reason="derivative_vanishes", iterations=n
                )
            prod = prod * dk
            w = k.eval(w)
            r = -w / prod
            delta = float(np.max(np.abs(r - r_prev)))
            r_prev = r
            if delta < conv_tol:
                converged = True
                break
    if not converged:
        return EmbeddingVerdict(embeddable=False, reason="limit_diverges", iterations=n)

    u_raw = -r_prev / pts
    # Richardson over the two innermost rings cancels their leading r^_RING_ANGLES term.
    g1 = np.mean(u_raw[:_RING_ANGLES])
    g2 = np.mean(u_raw[_RING_ANGLES : 2 * _RING_ANGLES])
    origin = (_RICHARDSON_SCALE * g1 - g2) / (_RICHARDSON_SCALE - 1.0)
    u_norm = u_raw / origin

    principal = -np.log(c1)
    passing = []
    for branch in _branch_order(branch_bound):
        product = principal - TWO_PI * 1j * branch
        t0 = abs(product)
        if t0 == 0.0:
            continue  # K'(0) = 1 exactly: only the identity, handled as a rotation
        beta = product / t0
        if float(np.min(np.real(beta * u_norm))) >= -positivity_tol:
            passing.append(branch)
    if passing:
        branch = passing[0]
        product = principal - TWO_PI * 1j * branch
        t0 = abs(product)
        return EmbeddingVerdict(
            embeddable=True,
            reason="ok",
            grid=tuple(pts),
            u_estimate=tuple(u_norm),
            t0=t0,
            beta=complex(product / t0),
            branch_index=branch,
            branches_found=tuple(passing),
            product=complex(product),
            iterations=n,
        )
    return EmbeddingVerdict(
        embeddable=False,
        reason="positivity_fails",
        grid=tuple(pts),
        u_estimate=tuple(u_norm),
        iterations=n,
    )


def _branch_order(bound: int):
    yield 0
    for j in range(1, bound + 1):
        yield j
        yield -j


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
