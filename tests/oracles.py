"""Slow reference routes kept as test oracles.

``horner_compose`` is nested (Horner) composition on series and
``recursion_flow_coefficients`` solves v(f) = v f' one coefficient at a
time with one full composition per coefficient, on the series
``vector_field`` of v = -z u.  Neither shares code with the composition
or the power table of :mod:`monoconv.series`.  ``merge_and_drop`` is the
canonical form of a cfree word, computed apart from ``Word``.
``NestedTupleCFree`` is the two-state recursion on states that carry every
letter's polynomial, re-deriving psi tails, phi values and merges (full
polynomial products) at each state; the interned evaluator must agree with
it exactly.  ``DropKeepCFree`` is the interned evaluator under the
recursion value(s) = psi(l) * value(drop) + value(keep) at the first letter
l of s that splits, keep being s with l centered, every keep state
memoized and the evaluator's zero rules applied, where
:class:`monoconv.cfree.CFreeEvaluator` walks each state once.
``StateWalkCFree`` is the interned evaluator walking every word from its
first letter, as it walks a drop state, where the evaluator extends the
record of the word's prefix by one letter.  ``monotone_by_calls`` is
:func:`monoconv.cfree.monotone_eval` calling the functional once per
factor, where ``monotone_eval`` reads the stored moments by index.
``length_first_words`` is the former order of :func:`monoconv.cfree.canonical_words`, all words of one
length before the next, where the sweep now goes depth first.
``CumulantCFree`` is the same functional by the moment-cumulant formula of
Bożejko, Leinert & Speicher (Pacific J. Math. 175, 1996): a word is spelled
out one generator per position, and its value is a sum over the
non-crossing partitions whose blocks each stay within one algebra; an outer
block takes its algebra's c-free cumulant R^(phi, psi) and a block nested
inside another takes the free cumulant of that algebra's psi.  It shares
no code with either recursion.
``herglotz_sum`` is the Herglotz generator as its defining sum
i b + sum_j w_j (omega_j + z)/(omega_j - z), one division per term and
atom, where the library takes the one-division form
(i b - W) + sum_j 2 w_j omega_j/(omega_j - z) with W the total mass.
``iterated_generator`` reaches u/u(0) without the Koenigs function: it
iterates -K^n/(K^n)' to a Cauchy tolerance and takes u(0) by Richardson
extrapolation over the two inner grid rings.  ``k_route_convolve`` is the
convolution by its defining identity K_{mu |> nu} = K_mu o K_nu, with both
K-transforms, the conversion back to moments and ``horner_compose``, where
:func:`monoconv.convolution.monotone_convolve` composes psi_mu with K_nu by
the library's baby-step/giant-step composition.
``gw_exact_law`` is the law of a Galton-Watson generation Y_n read off the
iterated generating function on roots of unity by one FFT, where the
simulator draws from convolution powers of the offspring law.
``power_table`` is the whole power table [g^k]_m of a known g, filled by
the library's column step, where :meth:`monoconv.series.TruncatedSeries.compose`
takes baby steps and giant steps.
``reciprocal_forward`` is the series reciprocal by forward substitution,
b_k = -b_0 sum_(j=1..k) a_j b_(k-j), one dot product per coefficient, in
double or long double precision, or exactly on ``Fraction`` entries with
``dtype=object``, where
:meth:`monoconv.series.TruncatedSeries.reciprocal` doubles the number of
known coefficients by Newton steps.
``jsonable`` and ``csv_cell`` are the command line's former output
formatting, a walk over the payload and a per-cell type dispatch; the one
renderer, with a JSON ``default`` hook and ``str`` per cell, must write the
same bytes.
``load_json_text`` is the command line's former input reader, ``json.load``
on a UTF-8 text stream, where :func:`monoconv.cli._load_json` decodes the
file's bytes once; both must fail with the same message.
``evolve_by_unique`` is :func:`monoconv.semigroup.evolve` with its former
time bookkeeping, the grid and row map of ``np.unique(return_inverse=True)``,
where ``evolve`` sorts a set of Python floats.
``embedding_test_by_branch`` is :func:`monoconv.embedding.embedding_test`
with its former loop, one NumPy pass per log branch, and two separate K'
evaluations, on the grid and on the critical-point ring, where the library
tests every branch in one array pass and evaluates K' once on both point
sets.  The verdicts must be equal field by field.
``grouped_generation_by_merge`` is a Galton-Watson generation with its
former bookkeeping: the cost rule on arrays, and the draws merged by
``np.unique(return_inverse=True)`` and ``np.add.at``, where
:func:`monoconv.branching._grouped_generation` adds them into one count
array indexed by children total.  Both must make the same draws.
"""

import json
from fractions import Fraction
from itertools import combinations, groupby, product

import numpy as np

from monoconv import branching, embedding, semigroup
from monoconv._util import TWO_PI, ring_grid
from monoconv.cfree import CFreeEvaluator, Word, _tail
from monoconv.cli import InputError
from monoconv.embedding import EmbeddingVerdict, default_grid
from monoconv.errors import DomainError
from monoconv.measure import KTransform, k_transform, moments_from_k
from monoconv.series import TruncatedSeries, _fill_power_columns


def horner_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(z)) through order min(N_outer, N_inner): acc <- acc*g + c_k."""
    assert inner[0] == 0
    n = min(outer.order, inner.order)
    g = inner.truncate(n)
    acc = TruncatedSeries.zero(n)
    for ck in outer.coeffs[n::-1]:
        acc = acc * g + ck
    return acc


def power_table(g: np.ndarray) -> np.ndarray:
    """The power table P[k, m] = [g^k]_m, k, m = 0..N, of g_0..g_N with g_0 = 0."""
    table = np.zeros((g.size, g.size), dtype=np.complex128)
    table[0, 0] = 1.0
    table[1:2] = g  # no row 1 at order 0
    _fill_power_columns(table, 2, g.size)
    return table


def reciprocal_forward(coeffs, dtype=np.complex128) -> np.ndarray:
    """b_0..b_N with (sum a_k z^k)(sum b_k z^k) = 1 + O(z^(N+1)), one coefficient at a time."""
    a = np.asarray(coeffs, dtype=dtype)
    b = np.zeros(a.size, dtype=dtype)
    b[0] = 1 / a[0]
    for k in range(1, a.size):
        b[k] = -b[0] * np.dot(a[1 : k + 1], b[k - 1 :: -1])
    return b


def k_route_convolve(mu, nu, n: int) -> np.ndarray:
    """Moments m_1..m_n of mu |> nu from K_mu o K_nu: three reciprocals, one Horner composition."""
    k = horner_compose(k_transform(mu, n).series, k_transform(nu, n).series)
    return moments_from_k(KTransform(k), n)


def herglotz_sum(b: float, rho, z) -> np.ndarray:
    """u(z) = i b + sum_j w_j (omega_j + z)/(omega_j - z) over the atoms (angle, w) of rho."""
    z = np.asarray(z, dtype=complex)
    omega = np.exp(1j * np.array([a for a, _ in rho], dtype=float))
    weights = np.array([w for _, w in rho], dtype=float)
    return 1j * b + ((omega + z[..., None]) / (omega - z[..., None])) @ weights


def vector_field(gen, n: int) -> TruncatedSeries:
    """Series of v(z) = -z u(z) through order n >= 1, from the series of u."""
    c = np.zeros(n + 1, dtype=np.complex128)
    c[1:] = -gen.series(n - 1).coeffs
    return TruncatedSeries(c)


def recursion_flow_coefficients(gen, t: float, n: int) -> TruncatedSeries:
    """f_1..f_n of K_t, each f_m from one Horner composition v(f) at step m."""
    v = vector_field(gen, n)
    f = np.zeros(n + 1, dtype=np.complex128)
    f[1] = np.exp(-t * complex(gen.beta))
    for m in range(2, n + 1):
        lhs_lower = horner_compose(v, TruncatedSeries(f))[m]  # f_m is still 0 here
        rhs = sum(k * f[k] * v[m + 1 - k] for k in range(1, m))
        f[m] = (rhs - lhs_lower) / ((1 - m) * v[1])
    return TruncatedSeries(f)


def monotone_by_calls(word, phi1, phi2):
    """The monotone product functional with one ``MomentFunctional`` call per factor."""
    total = 0
    right = []
    for alg, p in word.letters:
        if alg == 1:
            total += p
        else:
            right.append(p)
    val = phi1(total)
    for p in right:
        val = val * phi2(p)
    return val


def merge_and_drop(letters):
    """Drop power-0 letters, then sum the powers of each run of one algebra."""
    kept = [(alg, power) for alg, power in letters if power != 0]
    return tuple((alg, sum(p for _, p in run)) for alg, run in groupby(kept, key=lambda letter: letter[0]))


class NestedTupleCFree:
    """Two-state product functional on states of (algebra, polynomial) letters."""

    def __init__(self, phi1, psi1, phi2, psi2):
        self._phi = {1: phi1, 2: phi2}
        self._psi = {1: psi1, 2: psi2}
        self._memo = {}

    def eval(self, word):
        state = tuple((alg, (0,) * p + (1,)) for alg, p in word.letters)
        return self._value(state)

    def _value(self, state):
        if not state:
            return 1
        if len(state) == 1:
            alg, poly = state[0]
            return poly[0] + _tail(self._phi[alg], poly)
        hit = self._memo.get(state)
        if hit is not None:
            return hit
        for i, (alg, poly) in enumerate(state):
            tail = _tail(self._psi[alg], poly)
            scalar = poly[0] + tail
            if scalar != 0:
                # poly = scalar*1 + centered, psi(centered) = 0 exactly because
                # its constant term is literally -tail
                centered = (-tail,) + poly[1:]
                keep = state[:i] + ((alg, centered),) + state[i + 1 :]
                drop = _merge(state[:i], state[i + 1 :])
                val = scalar * self._value(drop) + self._value(keep)
                break
        else:
            val = 1
            for alg, poly in state:
                val = val * (poly[0] + _tail(self._phi[alg], poly))
        self._memo[state] = val
        return val


def _merge(left, right):
    if left and right and left[-1][0] == right[0][0]:
        alg = left[-1][0]
        joined = (alg, _poly_mul(left[-1][1], right[0][1]))
        return left[:-1] + (joined,) + right[1:]
    return left + right


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb != 0:
                out[i + j] = out[i + j] + ca * cb
    return tuple(out)


def length_first_words(max_len, max_power):
    """The canonical words of length 1, then 2, ..., each length's in lexicographic order of powers."""
    for length in range(1, max_len + 1):
        for start in (1, 2):
            algebras = [start if i % 2 == 0 else 3 - start for i in range(length)]
            for powers in product(range(1, max_power + 1), repeat=length):
                yield Word(tuple(zip(algebras, powers)))


class StateWalkCFree(CFreeEvaluator):
    """Two-state product functional walking every word from its first letter.

    Words take the evaluator's walk of drop states, with no record of a
    prefix kept between words; everything else is the evaluator's own.
    """

    def _word_value(self, state):
        return self._value(state)


class DropKeepCFree(StateWalkCFree):
    """Two-state product functional by the drop/keep recursion on interned letters.

    Only the recursion differs from the evaluator's walk: letters, splits,
    phi values and merges are the evaluator's own.
    """

    def _value(self, state):
        if not state:
            return 1
        if len(state) == 1:
            return self._phi_value(state[0])
        hit = self._memo.get(state)
        if hit is not None:
            return hit
        for i, letter in enumerate(state):
            split = self._splits[letter]
            if split is None:
                split = self._split(letter)
            if split:
                scalar, centered = split
                drop = self._value(self._merge(state[:i], state[i + 1 :]))
                keep = self._value(state[:i] + (centered,) + state[i + 1 :])
                if drop == 0:
                    val = keep
                elif keep == 0:
                    val = scalar * drop
                else:
                    val = scalar * drop + keep
                break
        else:
            val = 1
            for factor in [self._phi_value(letter) for letter in state]:
                if factor == 0:
                    val = factor
                    break
                val = val * factor
        self._memo[state] = val
        return val

    def _merge(self, left, right):
        if not (left and right):
            return left + right
        pair = (left[-1], right[0])
        joined = self._merged.get(pair)
        if joined is None:
            joined = self._join(pair)
        return left[:-1] + (joined,) + right[1:]


def noncrossing_partitions(points, algebra):
    """Non-crossing partitions of the ascending ``points``, each block within one algebra.

    The block of the first point takes some later points of its algebra;
    the points between two of its elements, and those after its last one,
    are then partitioned on their own, so no two blocks cross.
    """
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    same = [p for p in rest if algebra[p] == algebra[first]]
    for r in range(len(same) + 1):
        for others in combinations(same, r):
            block = (first,) + others
            bounds = list(zip(block, block[1:])) + [(block[-1], len(algebra))]
            segments = [tuple(p for p in rest if lo < p < hi) for lo, hi in bounds]
            for parts in product(*(list(noncrossing_partitions(seg, algebra)) for seg in segments)):
                yield (block,) + tuple(b for part in parts for b in part)


def _partition_weight(blocks, algebra, outer, inner):
    """Product over blocks of outer[alg][size], or inner[alg][size] for a block nested in another."""
    weight = Fraction(1)
    for v in blocks:
        nested = any(min(w) < v[0] < max(w) for w in blocks if w is not v)
        weight *= (inner if nested else outer)[algebra[v[0]]][len(v)]
    return weight


def _one_algebra_cumulants(moment, order, inner=None):
    """c[1..order] from moment(k) = sum over NC(k) of c per outer block and inner per nested block.

    With no ``inner`` table, nested blocks take c as well: the free cumulants.
    """
    cumulants = {}
    outer, nested = {1: cumulants}, {1: cumulants if inner is None else inner}
    for k in range(1, order + 1):
        ones = [1] * k
        rest = sum(
            _partition_weight(blocks, ones, outer, nested)
            for blocks in noncrossing_partitions(tuple(range(k)), ones)
            if len(blocks) > 1
        )
        cumulants[k] = moment(k) - rest
    return cumulants


class CumulantCFree:
    """Two-state product functional by the c-free moment-cumulant formula, to generator order ``order``."""

    def __init__(self, phi1, psi1, phi2, psi2, order):
        self._free = {1: _one_algebra_cumulants(psi1, order), 2: _one_algebra_cumulants(psi2, order)}
        self._cfree = {
            1: _one_algebra_cumulants(phi1, order, self._free[1]),
            2: _one_algebra_cumulants(phi2, order, self._free[2]),
        }

    def eval(self, word):
        algebra = [alg for alg, p in word.letters for _ in range(p)]
        return sum(
            (
                _partition_weight(blocks, algebra, self._cfree, self._free)
                for blocks in noncrossing_partitions(tuple(range(len(algebra))), algebra)
            ),
            Fraction(0),
        )


_RING_ANGLES = 8
# an angle average over 8 points at radius r is u(0) + O(r^8); the two
# innermost rings of the default grid have radii 0.2 and 0.4
_RICHARDSON_SCALE = (0.4 / 0.2) ** _RING_ANGLES


def iterated_generator(k, max_iter: int = 500, conv_tol: float = 1e-9):
    """u/u(0) on the default grid, or None.

    The ratios r_n(z) = -K^n(z) / (K^n)'(z) of an embeddable K converge to
    -z u(z)/u(0); (K^n)' is a running product of K' along the orbit.  None
    means K' vanished on the orbit or the Cauchy test did not pass within
    ``max_iter`` steps.
    """
    pts = default_grid()
    w = pts.astype(complex)
    prod = np.ones_like(w)
    r_prev = -pts.astype(complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            dk = k.derivative_eval(w)
            if np.min(np.abs(dk)) <= 1e-9:
                return None
            prod = prod * dk
            w = k.eval(w)
            r = -w / prod
            delta = float(np.max(np.abs(r - r_prev)))
            r_prev = r
            if delta < conv_tol:
                break
        else:
            return None
    u_raw = -r_prev / pts
    g1 = np.mean(u_raw[:_RING_ANGLES])
    g2 = np.mean(u_raw[_RING_ANGLES : 2 * _RING_ANGLES])
    origin = (_RICHARDSON_SCALE * g1 - g2) / (_RICHARDSON_SCALE - 1.0)
    return u_raw / origin


def gw_exact_law(law, n: int) -> np.ndarray:
    """P(Y_n = k) for k = 0..(L-1)^n, Y_0 = 1, from ``law.phi_iterate`` by one FFT.

    Y_n <= (L-1)^n for support 0..L-1, so the N = (L-1)^n + 1 values
    phi_n(w^j), w = e^{2 pi i/N}, determine every coefficient without
    aliasing: P(Y_n = k) = (1/N) sum_j phi_n(w^j) w^{-jk}.
    """
    size = (len(law.p) - 1) ** n + 1
    roots = np.exp(2j * np.pi * np.arange(size) / size)
    values = np.array([law.phi_iterate(w, n) for w in roots])
    return np.clip(np.fft.fft(values).real / size, 0.0, None)


def jsonable(value):
    """``value`` with complex numbers as [re, im] pairs and numpy scalars as Python ones."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    return value


def csv_cell(v) -> str:
    """One CSV cell: a float as its repr, a complex as re+imj, anything else by str."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, complex):
        return f"{v.real!r}{v.imag:+}j"
    return str(v)


def load_json_text(path):
    """The JSON value in the file at ``path``, by ``json.load`` on a UTF-8 text stream."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc


def evolve_by_unique(gen, times, points, tol: float = 1e-10) -> np.ndarray:
    """K_t(z) as :func:`monoconv.semigroup.evolve`, on the grid and row map of ``np.unique``; no domain checks."""
    ts = np.asarray(times, dtype=float).ravel()
    zs = np.asarray(points, dtype=complex).ravel()
    grid, inverse = np.unique(ts, return_inverse=True)
    return semigroup._integrate(gen.vector_field_at, zs, grid.tolist(), tol)[inverse]


def grouped_generation_by_merge(rng, sizes, counts, p, powers):
    """Next generation's size tally from this one's (ascending distinct sizes, trial counts).

    The cost rule runs on arrays and the draws merge by
    ``np.unique(return_inverse=True)`` and ``np.add.at``.
    """
    width = p.size - 1
    dead = int(sizes[0] == 0)  # Y = 0 is absorbing
    y, c = sizes[dead:], counts[dead:]
    row = np.count_nonzero(p) * branching._TRIAL_CELL_NS + (width + 1) * branching._ZERO_CELL_NS
    gain = c * row - (y * width + 1) * branching._HIST_CELL_NS - branching._GROUP_NS
    extend = branching._convolution_cost(y, width) - branching._convolution_cost(len(powers) - 1, width)
    net = np.cumsum(np.maximum(gain, 0.0)) - np.maximum(extend, 0.0)
    best = int(np.argmax(net))
    take = np.zeros(y.size, dtype=bool)
    if net[best] > 0:
        take[: best + 1] = gain[: best + 1] > 0

    tally_sizes, tally_counts = [sizes[:dead]], [counts[:dead]]
    for yk, ck in zip(y[take].tolist(), c[take].tolist()):
        while len(powers) <= yk:
            # renormalised, so rounding drift cannot build up over the powers
            # (numpy's multinomial rejects cells summing above 1 + 1e-12)
            power = np.convolve(powers[-1], p)
            powers.append(power / power.sum())
        drawn = rng.multinomial(ck, powers[yk])
        hit = np.flatnonzero(drawn)
        tally_sizes.append(hit)
        tally_counts.append(drawn[hit])
    if not take.all():
        kid_sizes, kid_counts = np.unique(
            branching._per_trial(rng, np.repeat(y[~take], c[~take]), p), return_counts=True
        )
        tally_sizes.append(kid_sizes)
        tally_counts.append(kid_counts)
    sizes, where = np.unique(np.concatenate(tally_sizes), return_inverse=True)
    counts = np.zeros(sizes.size, dtype=np.int64)
    np.add.at(counts, where, np.concatenate(tally_counts))
    return sizes, counts


def embedding_test_by_branch(k) -> EmbeddingVerdict:
    """:func:`monoconv.embedding.embedding_test`, one pass per branch and one K' call per point set."""
    if k.order < 1:
        raise DomainError("the embedding test needs a K-transform of order >= 1")
    rot = embedding._rotation_angle(k)
    if rot is not None:
        return embedding._dirac_verdict(rot)

    c1 = k.derivative_at_zero
    if abs(c1) <= embedding._DERIV_TOL:
        return EmbeddingVerdict(embeddable=False, reason="derivative_vanishes")
    if abs(c1) >= 1.0:
        return EmbeddingVerdict(embeddable=False, reason="limit_diverges")

    pts = default_grid()
    dk = k.derivative_eval(pts)
    if np.min(np.abs(dk)) <= embedding._DERIV_TOL:
        return EmbeddingVerdict(embeddable=False, reason="derivative_vanishes")

    w = k.eval(pts)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = embedding._koenigs_series(k)
        u_norm = h(w) / (pts * dk * h.derivative()(w))

    principal = -np.log(c1)
    passing = []
    for branch in [0] + [sign * j for j in range(1, embedding._BRANCH_BOUND + 1) for sign in (1, -1)]:
        product = principal - TWO_PI * 1j * branch
        if float(np.min(np.real(product / abs(product) * u_norm))) >= -embedding._POSITIVITY_TOL:
            passing.append(branch)
    if not passing or _has_critical_point_of(k):
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


def _has_critical_point_of(k) -> bool:
    """Whether K' has a zero inside or on the outer grid ring, by its winding number there."""
    d = k.derivative_eval(ring_grid(embedding._RING_RADII[-1:], embedding._CRITICAL_NODES))
    with np.errstate(invalid="ignore", divide="ignore"):
        winding = np.sum(np.angle(np.roll(d, -1) / d)) / TWO_PI
    return not abs(winding) < 0.5
