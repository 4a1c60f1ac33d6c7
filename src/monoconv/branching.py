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
from itertools import accumulate, compress

import numpy as np

from ._util import integral_at_least
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
        """n-fold composition of the generating function at z.

        Stops early at an exact fixed point, phi(val) == val to the bit:
        every later iterate is then the same number.
        """
        val = complex(z)
        for _ in range(n):
            nxt = self.phi(val)
            if nxt == val and repr(nxt) == repr(val):  # repr tells -0.0 from 0.0
                break
            val = nxt
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
        """``rates`` maps offspring count j >= 2, an integral value, to lambda_j >= 0."""
        items = sorted((integral_at_least(j, "offspring count", 2), float(lam)) for j, lam in dict(rates).items())
        for _, lam in items:
            if not 0 <= lam < np.inf:
                raise ValueError("branching rates must be finite and nonnegative")
        self._rates = tuple(items)
        self._alpha = float(sum(lam for _, lam in items))  # summed once, off the RHS path

    @classmethod
    def yule(cls, alpha: float, k: int) -> "BranchingGenerator":
        """Single replacement by k >= 2 individuals at rate alpha."""
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

    def _u(self, z):
        """u(z) at a complex array or a Python complex, without a disk check;
        the float alpha when there are no rates."""
        val = self._alpha
        for j, lam in self._rates:
            val = val - lam * z ** (j - 1)
        return val

    def eval(self, z):
        """u(z) = alpha - sum_j lambda_j z^{j-1} for |z| < 1 (a ``DomainError``
        otherwise)."""
        z = np.asarray(z, dtype=complex)
        if (np.abs(z) >= 1.0).any():
            raise DomainError("generator is defined on the open unit disk")
        val = np.full_like(z, self._u(z))  # the shape of z, also without rates
        return val if val.ndim else complex(val)

    def vector_field_at(self, z):
        """v(z) = sum_j lambda_j z^j - alpha z, without a disk check (see
        :meth:`HerglotzGenerator.vector_field_at
        <monoconv.generator.HerglotzGenerator.vector_field_at>`).  A Python
        ``complex`` is evaluated on the complex itself; where a power
        overflows there, the array form gives the inf/nan instead."""
        if type(z) is complex:
            try:
                return -z * self._u(z)
            except OverflowError:  # z ** (j - 1) far off the disk
                pass
        z = np.asarray(z, dtype=complex)
        out = -z * self._u(z)
        return out if out.ndim else complex(out)

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

    The trials are independent copies of Y_0 = 1, ..., Y_n; only the tally
    of their final sizes enters ``means`` and ``stderrs``.  ``stderr`` is
    the sample standard error of the complex mean (root of the summed
    real/imaginary variances).  ``theory`` holds the n-fold iterate of the
    generating function; for an honest run the gap satisfies
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


# Cost model of one generation of grouped sampling, in nanoseconds, from
# timing NumPy 2.4 on one x86-64 core with time.perf_counter: a per-trial
# multinomial row spends 35-110 ns per offspring count of nonzero
# probability and about 5 ns per count of probability zero; a histogram
# draw rng.multinomial(c, q) costs about 5 us per call, plus 15-25 ns per
# cell of q it visits; np.convolve costs about 4 us per call plus 0.4 ns
# per multiply-add.  The 5 us held while every draw was merged into the
# tally by np.unique; the call itself takes 1-2 us and adding its counts
# into the count array about 1 us (NumPy 2.4.6, x86-64).  The constants
# stay as they are all the same: the law of the samples does not depend
# on them, but the samples a seed gives do, since the rule decides which
# groups take a histogram draw.
# The convolution term is what keeps wide laws off the histogram draw: a
# rule on draw cells against trial cells alone sent 3 * 10^5 trials of the
# support-65 law (1/2, 0, ..., 0, 1/2) through p^{*y} up to y near 2048,
# 4.9 s against 0.19 s with this model.
_TRIAL_CELL_NS = 60.0
_ZERO_CELL_NS = 5.0
_HIST_CELL_NS = 20.0
_GROUP_NS = 5000.0
_CONV_NS = 4000.0
_MADD_NS = 0.4
# With fewer than this many trials per distinct size, tallying the sizes
# costs more than the histogram draws save: without the switch, 10^3
# trials of the supercritical law (0, 1/2, 1/2) over 34 generations took
# 11 ms, against 7 ms with it and 5.5 ms drawn per trial throughout.
_SPARSE_RATIO = 4


def _convolution_cost(y, width):
    """Cost of the y - 1 convolutions that build p^{*y} from p (support 0..width), y >= 1."""
    k = y - 1.0
    # convolving p^{*j} (j*width + 1 cells) with p costs (j*width + 1)(width + 1)
    return k * _CONV_NS + _MADD_NS * (width + 1) * (width * k * (k + 1) / 2 + k)


def _per_trial(rng, pop, p):
    """Children totals of trials with population sizes ``pop``, one multinomial row each."""
    return rng.multinomial(pop, p) @ np.arange(p.size)


def _grouped_generation(rng, sizes, counts, p, powers):
    """Next generation's size tally from this one's (ascending distinct sizes, trial counts).

    The trials of size y have children totals S ~ p^{*y}, so one
    ``rng.multinomial(count, p^{*y})`` draws the whole group.  Groups take
    that draw up to the size where the convolutions extending ``powers``
    (``powers[k]`` is p^{*k}, extended in place) stop paying for
    themselves, and only where the draw beats per-trial draws; the other
    groups share one per-trial draw.  Both draws are exact.

    The draws add into one int64 array indexed by children total, as long
    as the largest histogram draw; per-trial totals beyond its end are
    tallied by ``np.unique`` and follow its sizes, so no tally is sorted
    or merged.  The cost rule runs in Python floats, summing left to right
    as ``np.cumsum`` and taking the first best group as ``np.argmax``, so
    it picks the groups that the same rule on NumPy arrays picks.
    """
    width = p.size - 1
    dead = int(sizes[0] == 0)  # Y = 0 is absorbing
    y, c = sizes[dead:].tolist(), counts[dead:].tolist()
    row = np.count_nonzero(p) * _TRIAL_CELL_NS + (width + 1) * _ZERO_CELL_NS
    gain = [ck * row - (yk * width + 1) * _HIST_CELL_NS - _GROUP_NS for yk, ck in zip(y, c)]
    saved = list(accumulate([g if g > 0.0 else 0.0 for g in gain]))  # np.cumsum(np.maximum(gain, 0))
    built = _convolution_cost(len(powers) - 1, width)
    best, best_net = 0, -np.inf
    for k, yk in enumerate(y):
        extend = max(_convolution_cost(yk, width) - built, 0.0)
        if saved[-1] - extend <= best_net:
            break  # extend grows with the size, so no later group does better
        if saved[k] - extend > best_net:  # the first of equal maxima, as np.argmax
            best, best_net = k, saved[k] - extend
    bulk = best + 1 if best_net > 0 else 0
    pooled = [k >= bulk or gain[k] <= 0 for k in range(len(y))]

    # group bulk - 1 takes the largest draw: where np.argmax stops, a positive gain was added
    tally = np.zeros(y[bulk - 1] * width + 1 if bulk else 1, dtype=np.int64)
    if dead:
        tally[0] = counts[0]
    for yk, ck, pool in zip(y[:bulk], c[:bulk], pooled):
        if pool:
            continue
        while len(powers) <= yk:
            # renormalised, so rounding drift cannot build up over the powers
            # (numpy's multinomial rejects cells summing above 1 + 1e-12)
            power = np.convolve(powers[-1], p)
            powers.append(power / power.sum())
        drawn = rng.multinomial(ck, powers[yk])
        tally[: drawn.size] += drawn
    if any(pooled):
        pop = np.repeat(np.array(list(compress(y, pooled)), dtype=np.int64), list(compress(c, pooled)))
        kids = _per_trial(rng, pop, p)
        if kids.max() < tally.size:
            tally += np.bincount(kids, minlength=tally.size)
        else:
            kid_sizes, kid_counts = np.unique(kids, return_counts=True)
            fit = int(np.searchsorted(kid_sizes, tally.size))
            tally[kid_sizes[:fit]] += kid_counts[:fit]  # distinct indices
            hit = np.flatnonzero(tally)
            return (np.concatenate((hit, kid_sizes[fit:])), np.concatenate((tally[hit], kid_counts[fit:])))
    hit = np.flatnonzero(tally)
    return hit, tally[hit]


def _sample_sizes(law: OffspringLaw, n_steps: int, trials: int, rng):
    """Ascending distinct sizes of Y_n over the trials, and how many trials end at each.

    Each generation is a tally of distinct sizes and trial counts, drawn by
    :func:`_grouped_generation`.  Once there are fewer than
    ``_SPARSE_RATIO`` trials per distinct size, the remaining generations
    draw per trial.  Sampling stops once every trial is extinct.
    """
    pvals = np.asarray(law.p, dtype=float)
    pvals = pvals / pvals.sum()  # the law may sum to 1 only within 1e-12
    powers = [np.ones(1), pvals]
    sizes, counts = np.ones(1, dtype=np.int64), np.array([trials], dtype=np.int64)
    pop = None  # the per-trial sizes, once grouping no longer pays
    for step in range(1, n_steps + 1):
        if pop is None and sizes.size * _SPARSE_RATIO > trials:
            pop = np.repeat(sizes, counts)
        if pop is None:
            sizes, counts = _grouped_generation(rng, sizes, counts, pvals, powers)
            top = sizes[-1]
        else:
            pop = _per_trial(rng, pop, pvals)
            top = pop.max()
        if top > _POPULATION_CAP:
            raise SupercriticalOverflowError(
                f"population exceeded {_POPULATION_CAP} at generation {step}"
            )
        if top == 0:  # every trial is extinct, and stays so
            break
    if pop is not None:
        sizes, counts = np.unique(pop, return_counts=True)
    return sizes, counts


def simulate_gw(law: OffspringLaw, n_steps: int, trials: int, z_samples, seed: int) -> GWSimulation:
    """Simulate Y_0 = 1, Y_{n+1} = sum of Y_n offspring draws, and average z^{Y_n}.

    Trials are grouped by population size: the trials of one size y draw
    their children totals together, as one multinomial over p^{*y}, where
    that costs less than a draw per trial.  Both draws are exact in
    distribution.  The seed fully determines the output (single PCG64
    stream).  A population above 10**7 in any trial aborts with an explicit
    supercritical-overflow error.  Sample points must lie in the closed
    unit disk, where z^{Y_n} cannot overflow.  ``trials`` and ``n_steps``
    must be integral values, at least 1 and 0; trial counts are int64, so
    ``trials`` must be below 2**63.
    """
    trials = integral_at_least(trials, "trials", 1)
    if trials >= 2**63:  # trial counts are held in int64
        raise ValueError(f"trial count must be below 2**63, got {trials}")
    n_steps = integral_at_least(n_steps, "n_steps", 0)
    zs = [complex(z) for z in np.atleast_1d(np.asarray(z_samples, dtype=complex))]
    if not all(abs(z) <= 1.0 for z in zs):
        raise DomainError("generating values are sampled for |z| <= 1")
    sizes, counts = _sample_sizes(law, n_steps, trials, np.random.default_rng(seed))

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
