import tracemalloc

import numpy as np
import pytest
from oracles import grouped_generation_by_merge, gw_exact_law, vector_field

import monoconv.branching as branching
from monoconv.branching import (
    BranchingGenerator,
    OffspringLaw,
    _sample_sizes,
    law_k_transform,
    simulate_gw,
    yule_flow,
)
from monoconv.errors import DomainError, SupercriticalOverflowError
from monoconv.measure import validate_k
from monoconv.semigroup import evolve_pointwise


# -- vector fields -------------------------------------------------------------


def test_vector_field_single_rate():
    v = vector_field(BranchingGenerator.yule(2.5, 3), 8)
    expect = np.zeros(9, dtype=complex)
    expect[1], expect[3] = -2.5, 2.5
    assert np.allclose(v.coeffs, expect, atol=0)


def test_vector_field_empty():
    v = vector_field(BranchingGenerator({}), 6)
    assert np.allclose(v.coeffs, 0, atol=0)


def test_vector_field_two_rates():
    v = vector_field(BranchingGenerator({2: 1.0, 3: 1.0}), 6)
    expect = np.zeros(7, dtype=complex)
    expect[1], expect[2], expect[3] = -2.0, 1.0, 1.0
    assert np.allclose(v.coeffs, expect, atol=0)


def test_generator_relation():
    gen = BranchingGenerator({2: 0.7, 4: 0.3})
    assert gen.alpha == 1.0
    for z in (0.3, 0.5j, -0.2 + 0.4j):
        assert abs(gen.vector_field_at(z) + z * gen.eval(z)) < 1e-15
        # Re u >= 0 holds on the disk for nonnegative rates, but check it
        assert gen.eval(z).real >= 0


def test_stored_alpha_keeps_values_bit_identical():
    # reference: alpha re-summed from the sorted rates on every call
    for rates in ({2: 0.1, 3: 0.2, 7: 0.3}, {5: 1.7, 2: 1e-3}, {}):
        gen = BranchingGenerator(rates)
        alpha = float(sum(lam for _, lam in sorted(rates.items())))
        assert gen.alpha == alpha and gen.beta == complex(alpha)
        coeffs = np.zeros(9, dtype=complex)
        coeffs[0] = alpha
        for j, lam in rates.items():
            coeffs[j - 1] -= lam
        assert np.array_equal(gen.series(8).coeffs, coeffs)
        for z in (np.array([0.3, -0.5j, 0.2 + 0.6j, 0.0]), np.array(0.4 - 0.1j), 0.4 - 0.1j):
            zs = np.asarray(z, dtype=complex)
            u = np.full_like(zs, alpha)
            for j, lam in sorted(rates.items()):
                u = u - lam * zs ** (j - 1)
            assert np.array_equal(gen.eval(z), u)
            assert np.array_equal(gen.vector_field_at(z), -zs * u)
            assert type(gen.eval(z)) is (complex if np.ndim(z) == 0 else np.ndarray)


# -- Yule closed form -----------------------------------------------------------


def test_yule_initial_condition():
    for z in (0.3, -0.5j, 0.2 + 0.6j):
        assert yule_flow(1.0, 2, 0.0, z) == z


def test_yule_known_value():
    # k=2, alpha=1, t=log 2: phi(z) = (z/2) / (1 - z/2); at z=1/2 this is 1/3
    got = yule_flow(1.0, 2, np.log(2.0), 0.5)
    assert abs(got - 1.0 / 3.0) < 1e-15


def test_yule_decay_to_origin():
    for z in (0.2, 0.5, 0.9):
        assert abs(yule_flow(1.0, 2, 40.0, z)) < 1e-15


def test_yule_flow_property():
    for s, t in ((0.3, 0.4), (1.0, 0.25)):
        for z in (0.4, 0.3 + 0.4j):
            lhs = yule_flow(1.0, 3, s + t, z)
            rhs = yule_flow(1.0, 3, s, yule_flow(1.0, 3, t, z))
            assert abs(lhs - rhs) < 1e-14


def test_yule_rejects_negative_time():
    with pytest.raises(DomainError):
        yule_flow(1.0, 2, -0.1, 0.4)


def test_yule_satisfies_ode_by_finite_differences():
    alpha, k = 1.0, 2
    gen = BranchingGenerator.yule(alpha, k)
    h = 1e-5
    for t in (0.2, 0.8):
        for z in (0.3, 0.2 + 0.4j):
            dphi = (yule_flow(alpha, k, t + h, z) - yule_flow(alpha, k, t - h, z)) / (2 * h)
            assert abs(dphi - gen.vector_field_at(yule_flow(alpha, k, t, z))) < 1e-6


def test_yule_matches_ode_solver():
    gen = BranchingGenerator.yule(1.0, 2)
    for t in (0.25, 1.0):
        for z in (0.3, -0.2 + 0.3j):
            assert abs(evolve_pointwise(gen, t, z, 1e-10) - yule_flow(1.0, 2, t, z)) < 1e-8


# -- offspring laws and the transform link ---------------------------------------


def test_law_validation():
    with pytest.raises(ValueError):
        OffspringLaw([0.5, 0.4])  # does not sum to 1
    with pytest.raises(ValueError):
        OffspringLaw([1.5, -0.5])


@pytest.mark.parametrize("p", [[np.nan, 1.0], [0.0, np.inf], [np.nan]])
def test_law_rejects_non_finite_probabilities(p):
    with pytest.raises(ValueError, match="finite"):
        OffspringLaw(p)


@pytest.mark.parametrize("rate", [np.nan, np.inf])
def test_branching_rates_must_be_finite(rate):
    with pytest.raises(ValueError, match="finite"):
        BranchingGenerator({2: 1.0, 3: rate})


def test_k_link_identity():
    k = law_k_transform(OffspringLaw([0, 1.0]))
    for z in (0.3 + 0.2j, -0.7j, 0.95):
        assert k.eval(z) == z
    assert validate_k(k).all_ok


def test_k_link_doubling():
    k = law_k_transform(OffspringLaw([0, 0, 1.0]))
    for z in (0.3 + 0.2j, -0.7j, 0.95):
        assert k.eval(z) == z**2
    assert validate_k(k).all_ok


def test_k_link_mixed_law():
    k = law_k_transform(OffspringLaw([0, 0.5, 0.5]))
    assert abs(k.series[1] - 0.5) == 0 and abs(k.series[2] - 0.5) == 0
    assert validate_k(k).all_ok


def test_k_link_requires_no_extinction():
    with pytest.raises(DomainError):
        law_k_transform(OffspringLaw([0.2, 0.8]))


# -- simulation ------------------------------------------------------------------


def test_simulation_deterministic_population():
    sim = simulate_gw(OffspringLaw([0, 1.0]), 6, 50, [0.4, 0.7j], seed=9)
    assert sim.means == (0.4 + 0j, 0.7j)
    assert sim.stderrs == (0.0, 0.0)

    sim2 = simulate_gw(OffspringLaw([0, 0, 1.0]), 4, 10, [0.5], seed=9)
    assert sim2.means[0] == 0.5**16  # Y_4 = 2^4 deterministically
    assert sim2.theory[0] == 0.5**16


def test_simulation_matches_iterated_generating_function():
    law = OffspringLaw([0, 0.5, 0.5])
    sim = simulate_gw(law, 5, 100_000, [0.3, 0.5, 0.8], seed=20240501)
    for mean, err, theory in zip(sim.means, sim.stderrs, sim.theory):
        assert abs(mean - theory) <= 4 * err


def test_simulation_matches_k_link_series():
    law = OffspringLaw([0, 0.6, 0.3, 0.1])
    k = law_k_transform(law, 8)
    series = k.series
    for n in (1, 3, 6):
        iterated = series
        for _ in range(n - 1):
            iterated = iterated.compose(series)
        sim = simulate_gw(law, n, 40_000, [0.45], seed=77 + n)
        assert abs(sim.means[0] - iterated(0.45)) <= 4 * sim.stderrs[0]


@pytest.mark.parametrize(
    "p, stops_early",
    [((0.5, 0.3, 0.2), True), ((0.2, 0.3, 0.5), True), ((0, 0.5, 0.5), True), ((0.25, 0.5, 0.25), False)],
)
def test_phi_iterate_equals_the_plain_loop(p, stops_early, monkeypatch):
    law, n = OffspringLaw(p), 2000
    points = [0.3, -0.7 + 0.2j, 0.95j, -0.0, complex(0.0, -0.0), -1.0]
    plain = []
    for z in points:
        val = complex(z)
        for _ in range(n):
            val = law.phi(val)
        plain.append(val)
    calls = []
    phi = OffspringLaw.phi
    monkeypatch.setattr(OffspringLaw, "phi", lambda self, z: calls.append(z) or phi(self, z))
    got = [law.phi_iterate(z, n) for z in points]
    assert [repr(v) for v in got] == [repr(v) for v in plain]  # repr tells -0.0 from 0.0
    assert (len(calls) < n * len(points)) == stops_early


def test_simulation_reproducible():
    law = OffspringLaw([0, 0.5, 0.5])
    a = simulate_gw(law, 4, 5000, [0.3], seed=5)
    b = simulate_gw(law, 4, 5000, [0.3], seed=5)
    assert a == b


def test_supercritical_overflow():
    # every individual has two children: 2**24 is the first population above 10**7
    with pytest.raises(SupercriticalOverflowError, match="exceeded 10000000 at generation 24$"):
        simulate_gw(OffspringLaw([0, 0, 1.0]), 30, 2, [0.5], seed=1)
    simulate_gw(OffspringLaw([0, 0, 1.0]), 23, 2, [0.5], seed=1)


def test_simulation_rejects_points_outside_closed_disk():
    law = OffspringLaw([0.0, 0.5, 0.5])
    with pytest.raises(DomainError):
        simulate_gw(law, 3, 10, [0.5, 1.5], seed=1)
    on_circle = simulate_gw(law, 3, 10, [1.0, -1j], seed=1)
    assert all(abs(m) <= 1.0 for m in on_circle.means)


# -- the law of the sampled sizes --------------------------------------------------

# Upper 1e-6 point of the standard normal.  Through the Wilson-Hilferty
# approximation it gives a chi-square bound that an exact sampler exceeds
# with probability at most 1e-6: from 1 to 331 degrees of freedom the
# approximate bound lies above the exact 1e-6 quantile (27.5 against 23.9
# at 1, 468.1 against 468.0 at 331).
_Z_FALSE_ALARM = 4.753424


class _LoggedRng:
    """A generator that records each multinomial draw as "group" (one count) or "trial" (one per trial).

    ``widest`` is the most cells any "group" draw had.
    """

    def __init__(self, seed, kinds):
        self._rng = np.random.default_rng(seed)
        self._kinds = kinds
        self.widest = 0

    def multinomial(self, n, pvals):
        if np.ndim(n) == 0:
            self._kinds.append("group")
            self.widest = max(self.widest, len(pvals))
        else:
            self._kinds.append("trial")
        return self._rng.multinomial(n, pvals)


def _chi_square_within_bound(observed, probs):
    """Pearson's statistic over neighbouring sizes merged until each bin expects >= 5 trials."""
    expected = probs * observed.sum()
    bins, o, e = [], 0.0, 0.0
    for ok, ek in zip(observed, expected):
        o, e = o + ok, e + ek
        if e >= 5.0:
            bins.append((o, e))
            o, e = 0.0, 0.0
    bins[-1] = (bins[-1][0] + o, bins[-1][1] + e)
    stat = sum((o - e) ** 2 / e for o, e in bins)
    dof = len(bins) - 1
    bound = dof * (1 - 2 / (9 * dof) + _Z_FALSE_ALARM * np.sqrt(2 / (9 * dof))) ** 3
    return stat < bound, stat, dof


S65 = [0.5] + [0.0] * 63 + [0.5]


@pytest.mark.parametrize(
    "p, n, trials, runs, draws",
    [
        ([0.25, 0.5, 0.25], 5, 100_000, 1, {"group"}),  # critical
        ([0.5, 0.3, 0.2], 6, 100_000, 1, {"group"}),  # subcritical, p_0 > 0
        ([0, 0.5, 0.5], 8, 100_000, 1, {"group", "trial"}),  # supercritical
        (S65, 2, 1000, 20, {"group", "trial"}),  # support 65: the second generation pools per trial
        ([0, 0.5, 0.5], 12, 300, 30, {"group", "trial"}),  # grouped, then per trial once sizes spread
        ([0.25, 0.5, 0.25], 5, 3, 3000, {"trial"}),  # too few trials to group
    ],
    ids=["critical", "subcritical", "supercritical", "support-65", "switch", "few-trials"],
)
def test_sampled_sizes_follow_the_exact_law(p, n, trials, runs, draws):
    law = OffspringLaw(p)
    probs = gw_exact_law(law, n)
    observed = np.zeros(probs.size)
    kinds = []
    for seed in range(runs):
        sizes, counts = _sample_sizes(law, n, trials, _LoggedRng([17, seed], kinds))
        assert counts.sum() == trials and (np.diff(sizes) > 0).all()
        assert sizes[-1] < probs.size and (probs[sizes] > 1e-14).all()  # no impossible size
        observed[sizes] += counts
    assert draws <= set(kinds)
    if draws == {"trial"}:
        assert set(kinds) == {"trial"}
    ok, stat, dof = _chi_square_within_bound(observed, probs)
    assert ok, f"chi-square {stat:.1f} on {dof} dof"


def test_law_summing_slightly_above_one():
    # OffspringLaw accepts sums within 1e-12 of 1, p^{*y} then sums to about
    # 1 + y 1e-13, and numpy's multinomial rejects cells summing above 1 + 1e-12
    law = OffspringLaw([0, 0.5, 0.5 + 1e-13])
    rng = _LoggedRng(23, [])
    sizes, counts = _sample_sizes(law, 9, 100_000, rng)
    assert rng.widest > 2 * 50  # a histogram draw over p^{*y}, y > 50
    ok, stat, dof = _chi_square_within_bound(
        np.bincount(sizes, weights=counts, minlength=2**9 + 1), gw_exact_law(law, 9)
    )
    assert ok, f"chi-square {stat:.1f} on {dof} dof"


@pytest.mark.parametrize("trials", [2**53 + 1, 2**63 - 1])
def test_trial_counts_beyond_float_precision_stay_exact(trials):
    sizes, counts = _sample_sizes(OffspringLaw([0.25, 0.5, 0.25]), 4, trials, _LoggedRng(5, []))
    assert counts.dtype == np.int64 and int(counts.sum()) == trials
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        simulate_gw(OffspringLaw([0.25, 0.5, 0.25]), 4, 2**63, [0.5], seed=5)


def test_a_fractional_trial_count_is_rejected_not_truncated():
    # 2.5 used to draw 2 trials and divide their tally by 2.5
    with pytest.raises(ValueError, match="trials must be an integer >= 1, got 2.5"):
        simulate_gw(OffspringLaw([0.25, 0.5, 0.25]), 3, 2.5, [0.5], 1)


def test_a_fractional_step_count_is_rejected():
    with pytest.raises(ValueError, match="n_steps must be an integer >= 0, got 2.7"):
        simulate_gw(OffspringLaw([0.25, 0.5, 0.25]), 2.7, 10, [0.5], 1)


def test_integral_counts_of_another_type_are_taken():
    law = OffspringLaw([0.25, 0.5, 0.25])
    got = simulate_gw(law, 3.0, np.int64(2), [0.5], 1)
    assert got == simulate_gw(law, 3, 2, [0.5], 1)
    assert type(got.trials) is int and type(got.n_steps) is int


@pytest.mark.parametrize("make", [lambda: BranchingGenerator({2.5: 1.0}), lambda: BranchingGenerator.yule(1.0, 2.5)])
def test_a_fractional_offspring_count_is_rejected_not_truncated(make):
    # both used to become the rate {2: 1.0}
    with pytest.raises(ValueError, match="offspring count must be an integer >= 2, got 2.5"):
        make()


@pytest.mark.parametrize("trials", [3, 10])  # per-trial and grouped
def test_sampling_stops_once_every_trial_is_extinct(trials):
    kinds = []
    sizes, counts = _sample_sizes(OffspringLaw([0.5, 0.3, 0.2]), 10**5, trials, _LoggedRng(2, kinds))
    assert sizes.tolist() == [0] and counts.tolist() == [trials]
    assert len(kinds) < 100
    sim = simulate_gw(OffspringLaw([0.5, 0.3, 0.2]), 10**4, trials, [0.5], seed=2)
    assert sim.means == (1 + 0j,) and sim.stderrs == (0.0,)


class _RecordingRng:
    """A generator that records the arguments of each multinomial draw: ``n`` (an int or an array) and ``pvals``."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def multinomial(self, n, pvals):
        self.calls.append((np.array(n, copy=True) if np.ndim(n) else n, np.array(pvals, copy=True)))
        return self._rng.multinomial(n, pvals)


def _same_call(a, b):
    (n_a, p_a), (n_b, p_b) = a, b
    if np.ndim(n_a) or np.ndim(n_b):
        same_n = type(n_a) is type(n_b) and n_a.dtype == n_b.dtype and np.array_equal(n_a, n_b)
    else:
        same_n = type(n_a) is type(n_b) and n_a == n_b
    return same_n and p_a.dtype == p_b.dtype and np.array_equal(p_a, p_b)


def _run_sampler(law, n, trials, seed):
    rng = _RecordingRng(seed)
    try:
        return _sample_sizes(law, n, trials, rng), rng.calls
    except SupercriticalOverflowError as exc:
        return str(exc), rng.calls


@pytest.mark.parametrize(
    "p, n, trials, seeds",
    [
        ([0.25, 0.5, 0.25], 5, 100_000, 2),  # the six cases of the exact-law test
        ([0.5, 0.3, 0.2], 6, 100_000, 1),
        ([0, 0.5, 0.5], 8, 100_000, 1),
        (S65, 2, 1000, 3),
        ([0, 0.5, 0.5], 12, 300, 4),
        ([0.25, 0.5, 0.25], 5, 3, 4),
        ([0, 0.5, 0.5 + 1e-13], 9, 100_000, 1),  # sums to 1 + 1e-13
        ([0, 1.0], 6, 50, 1),  # deterministic
        ([0, 0, 1.0], 4, 10, 1),
        ([0.25, 0.5, 0.25], 4, 1, 3),  # trial counts
        ([0.25, 0.5, 0.25], 4, 10, 3),
        ([0.3, 0.4, 0.3], 12, 300, 3),
        ([0.25, 0.5, 0.25], 4, 2**53 + 1, 2),
        ([0.25, 0.5, 0.25], 4, 2**63 - 1, 2),
        ([0.5, 0.3, 0.2], 10**5, 3, 2),  # early extinction, per trial and grouped
        ([0.5, 0.3, 0.2], 10**5, 10, 2),
        ([0.5, 0.3, 0.2], 10**5, 300, 1),
        ([0, 0, 1.0], 30, 2, 1),  # overflow at generation 24, per trial
        ([0, 0, 1.0], 30, 10, 1),  # and grouped
        ([0] * 64 + [1.0], 10, 300, 1),  # support 65, at generation 4
        ([0.5, 0.5] + [0.0] * 63, 6, 100_000, 1),  # cells of probability zero
    ],
)
def test_generations_make_the_draws_of_the_merging_generation(p, n, trials, seeds, monkeypatch):
    law = OffspringLaw(p)
    for seed in range(seeds):
        got, calls = _run_sampler(law, n, trials, [41, seed])
        with monkeypatch.context() as patch:
            patch.setattr(branching, "_grouped_generation", grouped_generation_by_merge)
            want, want_calls = _run_sampler(law, n, trials, [41, seed])
        assert len(calls) == len(want_calls)
        assert all(_same_call(a, b) for a, b in zip(calls, want_calls))
        if isinstance(want, str):  # the same overflow message, so the same generation
            assert got == want
            continue
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)


def test_grouped_sampling_memory():
    # per-trial arrays of 10^7 trials would take hundreds of MiB
    tracemalloc.start()
    try:
        simulate_gw(OffspringLaw([0.25, 0.5, 0.25]), 5, 10**7, [0.5], seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_wide_law_sampling_memory():
    # 78.3 MiB measured before the single count array (seed 6), so the bound
    # leaves a 23 % margin; a count array as long as the largest children
    # total reached 128.9 MiB here
    tracemalloc.start()
    try:
        simulate_gw(OffspringLaw(S65), 4, 3 * 10**5, [0.5], seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20
