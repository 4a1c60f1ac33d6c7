import cmath
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import embedding_test_by_branch, iterated_generator

from monoconv.branching import BranchingGenerator
from monoconv.embedding import EmbeddingVerdict, default_grid, dirac_embedding, embedding_test
from monoconv.errors import DomainError
from monoconv.generator import HerglotzGenerator
from monoconv.measure import CircleMeasure, KTransform, k_transform
from monoconv.semigroup import flow_coefficients


def scaling_k(c, order=16):
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[1] = c
    return KTransform.from_coefficients(coeffs)


def seeded_gen(seed, small_b=True):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    rho = [(a, w) for a, w in zip(rng.uniform(0, 2 * np.pi, n), rng.uniform(0.15, 0.5, n))]
    b = rng.uniform(-0.3, 0.3) if small_b else rng.uniform(-1, 1)
    return HerglotzGenerator(b=b, rho=rho)


def test_pure_scaling_accepted():
    v = embedding_test(scaling_k(0.5))
    assert v.embeddable and v.reason == "ok"
    assert abs(v.t0 - np.log(2)) < 1e-12
    assert v.branch_index == 0
    assert max(abs(u - 1) for u in v.u_estimate) < 1e-12
    # a pure scaling also embeds along every spiral branch
    assert v.branches_found[0] == 0 and len(v.branches_found) > 1


def test_square_rejected_everywhere():
    for order in (8, 16, 32):
        v = embedding_test(KTransform.monomial(2, order))
        assert not v.embeddable and v.reason == "derivative_vanishes"


def test_yule_snapshot_recovers_time_and_generator():
    gen = BranchingGenerator.yule(1.0, 2)
    k = KTransform(flow_coefficients(gen, 0.5, 32))
    v = embedding_test(k)
    assert v.embeddable and v.reason == "ok"
    assert abs(v.t0 - 0.5) < 1e-6
    # the normalized generator is u(z)/u(0) = 1 - z
    for z, u in zip(v.grid, v.u_estimate):
        assert abs(u - (1 - z)) < 1e-4


def test_round_trip_seeded_generators():
    for seed in (1, 2, 3):
        gen = seeded_gen(seed)
        for t0 in (0.3, 1.0):
            k = KTransform(flow_coefficients(gen, t0, 32))
            v = embedding_test(k)
            assert v.embeddable, (seed, t0, v.reason)
            true_product = t0 * gen.beta
            assert abs(v.product - true_product) <= 1e-3
            # u_estimate should be proportional to u / u(0) on the grid
            for z, u in zip(v.grid, v.u_estimate):
                assert abs(u - gen.eval(z) / gen.beta) < 1e-3


def test_composition_doubles_the_parameter():
    gen = seeded_gen(4)
    t0 = 0.4
    k = KTransform(flow_coefficients(gen, t0, 32))
    v1 = embedding_test(k)
    v2 = embedding_test(KTransform(k.series.compose(k.series)))
    assert v1.embeddable and v2.embeddable
    assert abs(v2.product - 2 * v1.product) <= 1e-3


def test_positivity_failure_detected():
    # strongly squeezing quadratic self-map: the Koenigs function exists but
    # the recovered field has negative real part on the grid
    k = KTransform.from_coefficients([0, 0.2, 0.8] + [0.0] * 30)
    v = embedding_test(k)
    assert not v.embeddable and v.reason == "positivity_fails"
    assert v.iterations == 1


def test_slow_flow_member_is_accepted():
    # |K'(0)| = 0.986, near the identity: the orbits of K converge slowly
    gen = seeded_gen(5)
    k = KTransform(flow_coefficients(gen, 0.02, 32))
    v = embedding_test(k)
    assert v.embeddable and v.reason == "ok" and v.iterations == 1
    assert abs(v.product - 0.02 * gen.beta) <= 1e-12 * abs(0.02 * gen.beta)


def test_expanding_map_diverges():
    # |K'(0)| > 1: by the Schwarz lemma not a self-map of the disk
    v = embedding_test(KTransform.from_coefficients([0, 1.2, 0.1] + [0.0] * 10))
    assert not v.embeddable and v.reason == "limit_diverges" and v.iterations == 0


def three_atoms(angles, first_two_weights, order):
    weights = [*first_two_weights, 1.0 - sum(first_two_weights)]
    return k_transform(CircleMeasure.from_atoms(angles, weights), order)


def test_pole_between_the_inner_rings_is_rejected():
    # K' vanishes at |z| = 0.22, so u has a pole between the rings of radius
    # 0.2 and 0.4 and no extrapolation of u(0) from them is valid
    k = three_atoms([0.7459009, 4.22027221, 0.73691006], [0.13337343, 0.30453426], 32)
    v = embedding_test(k)
    assert not v.embeddable and v.reason == "positivity_fails"


def test_critical_point_inside_the_grid_vetoes_acceptance():
    # K is a Blaschke product of degree 3, never univalent; u passes the
    # positivity test on the grid, but K' vanishes at |z| = 0.21 and 0.45
    k = three_atoms([0.44227162, 5.28967071, 2.6265537], [0.42887934, 0.224823], 16)
    v = embedding_test(k)
    assert not v.embeddable and v.reason == "derivative_vanishes"


def test_rotation_dispatches_to_special_case():
    v = embedding_test(KTransform.dirac(np.pi, 16))
    assert v.embeddable and v.reason == "dirac_special_case"
    assert abs(v.t0 - np.pi) < 1e-15
    # identity transform: constant flow
    v0 = embedding_test(KTransform.identity(16))
    assert v0.embeddable and v0.reason == "dirac_special_case" and v0.t0 == 0.0


def test_verdict_reports_the_default_grid():
    v = embedding_test(scaling_k(0.6))
    assert v.embeddable
    assert v.grid == tuple(default_grid()) and len(v.u_estimate) == 24


def test_dirac_family():
    fam = dirac_embedding(0.0)
    assert fam.flow(2.7, 0.3 + 0.1j, 0) == 0.3 + 0.1j  # k = 0: constant flow
    fam_pi = dirac_embedding(np.pi)
    assert abs(fam_pi.flow(1.0, 0.5, 0) - (-0.5)) < 1e-15
    for k in (-2, 0, 5):
        assert abs(fam_pi.rate(k + 1) - fam_pi.rate(k) - 2 * np.pi) < 1e-12
    # family generators induce rotation flows reaching the mass at t = 1
    gen = fam_pi.generator(1)
    assert gen.beta == -1j * (np.pi + 2 * np.pi)


def test_dirac_generator_consistency():
    from monoconv.semigroup import evolve_pointwise

    fam = dirac_embedding(1.1)
    gen = fam.generator(0)
    z = 0.4 - 0.2j
    assert abs(evolve_pointwise(gen, 1.0, z, 1e-12) - fam.flow(1.0, z, 0)) < 1e-10


def test_haar_is_not_embeddable():
    v = embedding_test(KTransform.haar(16))
    assert not v.embeddable and v.reason == "derivative_vanishes"


def test_order_zero_transform_is_a_domain_error():
    # K'(0) is not stored, so there is nothing to test
    with pytest.raises(DomainError):
        embedding_test(KTransform.from_coefficients([0.0]))


def test_derivative_series_is_built_once_per_transform():
    k = KTransform(flow_coefficients(seeded_gen(6), 0.5, 16))
    z = np.array([0.1, 0.3j])
    first = k.derivative_eval(z)
    assert k._derivative is k._derivative
    assert np.array_equal(k.derivative_eval(z), first)
    assert np.array_equal(first, k.series.derivative()(z))


# -- Koenigs route against the generator and the iteration oracle ------------


def unit_mass_generator(b, atoms):
    total = sum(w for _, w in atoms)
    return HerglotzGenerator(b=b, rho=[(angle, w / total) for angle, w in atoms])


def flow_members(t_min):
    """(generator, t): 2-16 atoms of total mass 1, b in [-1, 1], t log-uniform in [t_min, 1.5].

    With the mass fixed, |K'(0)| = e^{-t} stays above e^{-1.5}; a heavier
    flow run long enough has |K'| below the derivative tolerance on the grid.
    """
    generators = st.builds(
        unit_mass_generator,
        st.floats(-1.0, 1.0),
        st.lists(st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.05, 1.0)), min_size=2, max_size=16),
    )
    return st.tuples(generators, st.floats(np.log(t_min), np.log(1.5)).map(np.exp))


@settings(max_examples=40, deadline=None)
@given(member=flow_members(1e-3))
def test_flow_member_recovers_its_generator(member):
    gen, t = member
    v = embedding_test(KTransform(flow_coefficients(gen, t, 64)))
    assert v.embeddable and v.reason == "ok"
    assert abs(v.product - t * gen.beta) <= 1e-12 * abs(t * gen.beta)
    grid = np.array(v.grid)
    assert np.max(np.abs(np.array(v.u_estimate) - gen.eval(grid) / gen.beta)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(member=flow_members(0.05))
def test_koenigs_route_matches_the_iteration_where_it_converges(member):
    gen, t = member
    k = KTransform(flow_coefficients(gen, t, 64))
    iterated = iterated_generator(k)
    if iterated is not None:
        v = embedding_test(k)
        assert np.max(np.abs(np.array(v.u_estimate) - iterated)) <= 1e-7


# -- the one-pass branch test against the per-branch loop ------------------------


def assert_same_verdict(got, want):
    """Every field equal, NaN equal to NaN; ``grid`` and ``u_estimate`` bit for bit."""
    for field in dataclasses.fields(EmbeddingVerdict):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if isinstance(a, tuple):
            assert list(map(type, a)) == list(map(type, b)), field.name
        if field.name in ("grid", "u_estimate") and a is not None:
            assert np.array(a, dtype=complex).tobytes() == np.array(b, dtype=complex).tobytes(), field.name
        elif isinstance(a, (float, complex)):
            assert a == b or (cmath.isnan(a) and cmath.isnan(b)), field.name
        else:
            assert a == b, field.name


def atoms_strategy(min_size, max_size):
    return st.lists(st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.05, 1.0)), min_size=min_size, max_size=max_size)


@settings(max_examples=60, deadline=None)
@given(
    b=st.floats(-1.0, 1.0),
    rho=atoms_strategy(1, 4),
    t=st.floats(0.1, 2.0),
    order=st.sampled_from([1, 2, 16, 32, 48, 64]),
)
def test_branch_pass_matches_the_per_branch_loop_on_flow_members(b, rho, t, order):
    k = KTransform(flow_coefficients(HerglotzGenerator(b=b, rho=rho), t, order))
    assert_same_verdict(embedding_test(k), embedding_test_by_branch(k))


@settings(max_examples=60, deadline=None)
@given(atoms=atoms_strategy(2, 4), order=st.integers(16, 64))
def test_branch_pass_matches_the_per_branch_loop_on_atomic_measures(atoms, order):
    angles, weights = zip(*atoms)
    k = k_transform(CircleMeasure.from_atoms(angles, np.array(weights) / sum(weights)), order)
    assert_same_verdict(embedding_test(k), embedding_test_by_branch(k))


@pytest.mark.parametrize(
    "k, reason",
    [
        (KTransform.from_coefficients([0, 0.6, 0, 0.4]), "ok"),  # wrongly accepted: K' = 0 at +-i/sqrt(2)
        (KTransform.dirac(1.0, 16), "dirac_special_case"),
        (KTransform.from_coefficients([0, 1e-10, 0.5] + [0.0] * 13), "derivative_vanishes"),  # K'(0) ~ 0
        (KTransform.from_coefficients([0, 1.2, 0.1] + [0.0] * 10), "limit_diverges"),
        (KTransform.from_coefficients([0, -1.0, 0.1]), "limit_diverges"),  # |K'(0)| = 1, not a rotation
        (KTransform.from_coefficients([0, 0.2, 0.8] + [0.0] * 30), "positivity_fails"),
        # K' = 0 at |z| = 0.21 and 0.45: the critical-point veto
        (three_atoms([0.44227162, 5.28967071, 2.6265537], [0.42887934, 0.224823], 16), "derivative_vanishes"),
    ],
)
def test_branch_pass_matches_the_per_branch_loop_on_every_exit(k, reason):
    verdict = embedding_test(k)
    assert verdict.reason == reason
    assert_same_verdict(verdict, embedding_test_by_branch(k))
