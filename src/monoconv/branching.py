"""Galton-Watson processes as composition semigroups of generating functions.

An offspring law with p_0 = 0 has a generating function that fixes 0 and
maps the disk into itself, so it doubles as the K-transform of a circle
measure; iterating the generating function is then a discrete convolution
semigroup.  Continuous-time Markov branching with no extinction is driven
by the polynomial vector field v(z) = sum_{j>=2} lambda_j z^j - alpha z,
alpha = sum lambda_j, which fits the same flow machinery as the Herglotz
generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SupercriticalOverflowError
from .measure import KTransform
from .series import DEFAULT_ORDER, TruncatedSeries, horner

__all__ = [
    "OffspringLaw",
    "BranchingGenerator",
    "yule_flow",
    "law_k_transform",
    "simulate_gw",
    "GWSimulation",
]

_MAX_SUPPORT = 64
_POPULATION_CAP = 10**7


@dataclass(frozen=True)
class OffspringLaw:
    """Offspring distribution p_0..p_M with finite support (M <= 64)."""

    p: tuple

    def __init__(self, p):
        arr = tuple(float(x) for x in p)
        if len(arr) == 0 or len(arr) - 1 > _MAX_SUPPORT:
            raise ValueError(f"offspring support must be 0..{_MAX_SUPPORT}")
        if not np.isfinite(arr).all():
            raise ValueError("offspring probabilities must be finite")
        if any(x < 0 for x in arr):
            raise ValueError("offspring probabilities must be nonnegative")
        if abs(sum(arr) - 1.0) > 1e-12:
            raise ValueError("offspring probabilities must sum to 1")
        object.__setattr__(self, "p", arr)

    def phi(self, z):
        """Generating function value sum_m p_m z^m."""
        return horner(self.p, z)

    def phi_iterate(self, z, n: int):
        """n-fold composition of the generating function at z."""
        val = complex(z)
        for _ in range(n):
            val = self.phi(val)
        return val


class BranchingGenerator:
    """Infinitesimal offspring rates lambda_j >= 0 for j >= 2.

    Implements the same generator interface as
    :class:`~monoconv.generator.HerglotzGenerator`: u(z) =
    alpha - sum_j lambda_j z^{j-1} and v(z) = -z u(z).  Note Re u > 0
    holds automatically on the open disk here (|sum lambda_j z^{j-1}| <
    alpha), but callers should check rather than assume when constructing
    rate families by other means.
    """

    __slots__ = ("_rates", "_alpha")

    def __init__(self, rates):
        """``rates`` maps offspring count j >= 2 to lambda_j >= 0."""
        items = sorted((int(j), float(lam)) for j, lam in dict(rates).items())
        for j, lam in items:
            if j < 2:
                raise ValueError("branching rates start at offspring count 2")
            if not 0 <= lam < np.inf:
                raise ValueError("branching rates must be finite and nonnegative")
        self._rates = tuple(items)
        self._alpha = float(sum(lam for _, lam in items))  # summed once, off the RHS path

    @classmethod
    def yule(cls, alpha: float, k: int) -> "BranchingGenerator":
        """Single replacement by k individuals at rate alpha."""
        if k < 2:
            raise ValueError("Yule offspring count must be >= 2")
        return cls({k: alpha})

    @property
    def rates(self):
        return self._rates

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def beta(self) -> complex:
        return complex(self.alpha)

    def eval(self, z):
        """u(z) = alpha - sum_j lambda_j z^{j-1}."""
        z = np.asarray(z, dtype=complex)
        if (np.abs(z) >= 1.0).any():
            raise DomainError("generator is defined on the open unit disk")
        val = np.full_like(z, self._alpha)
        for j, lam in self._rates:
            val = val - lam * z ** (j - 1)
        return val if val.ndim else complex(val)

    def vector_field_at(self, z):
        """v(z) = sum_j lambda_j z^j - alpha z."""
        out = -np.asarray(z, dtype=complex) * self.eval(z)
        return out if np.ndim(out) else complex(out)

    def series(self, n: int = DEFAULT_ORDER) -> TruncatedSeries:
        c = np.zeros(n + 1, dtype=np.complex128)
        c[0] = self.alpha
        for j, lam in self._rates:
            if j - 1 <= n:
                c[j - 1] -= lam
        return TruncatedSeries(c)

    def __repr__(self):
        return f"BranchingGenerator(rates={dict(self._rates)!r})"


def yule_flow(alpha: float, k: int, t: float, z) -> complex:
    """Closed-form flow of the Yule vector field alpha (z^k - z).

    phi_t(z) = z e^{-alpha t} / (1 - (1 - e^{-alpha(k-1)t}) z^{k-1})^{1/(k-1)},
    with the principal root branch (continuous in t from phi_0 = z); for
    t < 0 that branch is not the flow, so negative times are rejected.
    """
    if k < 2:
        raise ValueError("Yule offspring count must be >= 2")
    if not t >= 0:
        raise DomainError("Yule flow time must be >= 0")
    z = complex(z)
    decay = np.exp(-alpha * (k - 1) * t)
    base = 1.0 - (1.0 - decay) * z ** (k - 1)
    root = np.exp(np.log(base) / (k - 1))  # principal branch; Re(base) > 0 on the disk
    return complex(z * np.exp(-alpha * t) / root)


def law_k_transform(law: OffspringLaw, order: int = DEFAULT_ORDER) -> KTransform:
    """The generating function of a p_0 = 0 law, wrapped as a K-transform."""
    if law.p[0] != 0:
        raise DomainError("only laws with p_0 = 0 define a K-transform (K(0) must be 0)")
    n = max(order, len(law.p) - 1)
    c = np.zeros(n + 1, dtype=np.complex128)
    c[: len(law.p)] = law.p
    return KTransform(TruncatedSeries(c))


@dataclass(frozen=True)
class GWSimulation:
    """Monte-Carlo estimate of E(z^{Y_n}) at each requested z.

    ``stderr`` is the sample standard error of the complex mean (root of
    the summed real/imaginary variances).  ``theory`` holds the n-fold
    iterate of the generating function; for an honest run the gap satisfies
    |mean - theory| <= 4 stderr up to a ~6e-5 Gaussian tail probability
    per point.
    """

    z_samples: tuple
    means: tuple
    stderrs: tuple
    theory: tuple
    n_steps: int
    trials: int
    seed: int


def simulate_gw(law: OffspringLaw, n_steps: int, trials: int, z_samples, seed: int) -> GWSimulation:
    """Simulate Y_0 = 1, Y_{n+1} = sum of Y_n offspring draws, and average z^{Y_n}.

    The seed fully determines the output (single PCG64 stream, trials
    vectorized per generation).  A population above 10**7 in any trial
    aborts with an explicit supercritical-overflow error.  Sample points
    must lie in the closed unit disk, where z^{Y_n} cannot overflow.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if n_steps < 0:
        raise ValueError("step count must be >= 0")
    zs = [complex(z) for z in np.atleast_1d(np.asarray(z_samples, dtype=complex))]
    if not all(abs(z) <= 1.0 for z in zs):
        raise DomainError("generating values are sampled for |z| <= 1")
    rng = np.random.default_rng(seed)
    pvals = np.asarray(law.p, dtype=float)
    counts_values = np.arange(pvals.size)
    pop = np.ones(trials, dtype=np.int64)
    for step in range(1, n_steps + 1):
        pop = rng.multinomial(pop, pvals) @ counts_values
        if np.max(pop) > _POPULATION_CAP:
            raise SupercriticalOverflowError(
                f"population exceeded {_POPULATION_CAP} at generation {step}"
            )

    sizes, counts = np.unique(pop, return_counts=True)
    freq = counts / trials
    means, errs, theo = [], [], []
    for z in zs:
        vals = np.asarray(z, dtype=complex) ** sizes
        mean = complex(np.dot(freq, vals))
        if trials > 1:
            # grouped sample variance of real and imaginary parts
            second = float(np.dot(freq, np.abs(vals) ** 2))
            var = (second - abs(mean) ** 2) * trials / (trials - 1)
            err = float(np.sqrt(max(var, 0.0) / trials))
        else:
            err = float("inf")
        means.append(mean)
        errs.append(err)
        theo.append(law.phi_iterate(z, n_steps))
    return GWSimulation(
        z_samples=tuple(zs),
        means=tuple(means),
        stderrs=tuple(errs),
        theory=tuple(theo),
        n_steps=n_steps,
        trials=trials,
        seed=seed,
    )
