import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import k_route_convolve

from monoconv.convolution import affine_mixture_convolve, monotone_convolve
from monoconv.measure import CircleMeasure, k_transform, validate_k


def rand_atomic(rng, n):
    return CircleMeasure.from_atoms(rng.uniform(0, 2 * np.pi, n), rng.dirichlet(np.ones(n)))


def two_point():
    return CircleMeasure.from_atoms([0.0, np.pi], [0.5, 0.5])


def test_unit_both_sides():
    rng = np.random.default_rng(2)
    mu = rand_atomic(rng, 4)
    unit = CircleMeasure.dirac(0.0)
    m = mu.moments(16)
    assert np.max(np.abs(monotone_convolve(mu, unit, 16).moments(16) - m)) < 1e-13
    assert np.max(np.abs(monotone_convolve(unit, mu, 16).moments(16) - m)) < 1e-13


def test_right_dirac_translates():
    rng = np.random.default_rng(3)
    mu = rand_atomic(rng, 5)
    x = 0.9
    out = monotone_convolve(mu, CircleMeasure.dirac(x), 12).moments(12)
    expect = mu.moments(12) * np.exp(1j * x * np.arange(1, 13))
    assert np.max(np.abs(out - expect)) < 1e-13


def test_square_of_two_point_is_fourth_roots():
    out = monotone_convolve(two_point(), two_point(), 16).moments(16)
    expect = np.array([1.0 if (k % 4 == 0) else 0.0 for k in range(1, 17)])
    assert np.max(np.abs(out - expect)) < 1e-12


def test_associativity_random_triples():
    rng = np.random.default_rng(17)
    for _ in range(8):
        lam = rand_atomic(rng, 3)
        mu = rand_atomic(rng, 2)
        nu = rand_atomic(rng, 3)
        left = monotone_convolve(monotone_convolve(lam, mu, 16), nu, 16).moments(16)
        right = monotone_convolve(lam, monotone_convolve(mu, nu, 16), 16).moments(16)
        assert np.max(np.abs(left - right)) < 1e-12


def _normalized(atoms):
    angles, weights = (np.array(column) for column in zip(*atoms))
    return CircleMeasure.from_atoms(angles, weights / weights.sum())


atomic_measures = st.lists(
    st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.05, 1.0)), min_size=2, max_size=4
).map(_normalized)


@settings(max_examples=40, deadline=None)
@given(lam=atomic_measures, mu=atomic_measures, nu=atomic_measures)
def test_associativity_property(lam, mu, nu):
    n = 32
    left = monotone_convolve(monotone_convolve(lam, mu, n), nu, n).moments(n)
    right = monotone_convolve(lam, monotone_convolve(mu, nu, n), n).moments(n)
    assert np.max(np.abs(left - right)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(mu=atomic_measures, nu=atomic_measures)
def test_convolution_output_is_a_valid_k_transform(mu, nu):
    n = 32
    assert validate_k(k_transform(monotone_convolve(mu, nu, n), n)).all_ok


def _poisson_smoothed(measure, r):
    # moments r^k m_k: the measure seen through the Poisson kernel at radius r
    return CircleMeasure.from_moments(measure.moments(256) * r ** np.arange(1, 257))


one_to_five_atoms = st.lists(
    st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.05, 1.0)), min_size=1, max_size=5
).map(_normalized)
left_measures = one_to_five_atoms | st.builds(_poisson_smoothed, one_to_five_atoms, st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(mu=left_measures, nu=one_to_five_atoms, n=st.sampled_from([16, 64, 128, 256]))
def test_psi_route_matches_k_composition(mu, nu, n):
    # psi_mu o K_nu against K_mu o K_nu converted back to moments
    got = monotone_convolve(mu, nu, n).moments(n)
    assert np.max(np.abs(got - k_route_convolve(mu, nu, n))) <= 1e-12


def test_noncommutativity_witness():
    # left convolution by a point mass is not the translation action
    x = np.pi / 2
    mu = two_point()
    left = monotone_convolve(CircleMeasure.dirac(x), mu, 8).moments(8)
    translated = mu.moments(8) * np.exp(1j * x * np.arange(1, 9))
    assert np.max(np.abs(left - translated)) > 1e-3
    # and the convolution itself is order-sensitive
    other = monotone_convolve(mu, CircleMeasure.dirac(x), 8).moments(8)
    assert np.max(np.abs(left - other)) > 1e-3


def test_affine_mixture_point_mass_and_unit():
    rng = np.random.default_rng(19)
    nu = rand_atomic(rng, 3)
    x = 1.3
    dirac = CircleMeasure.dirac(x)
    a = affine_mixture_convolve(dirac, nu, 12).moments(12)
    b = monotone_convolve(dirac, nu, 12).moments(12)
    assert np.max(np.abs(a - b)) < 1e-13
    mu = two_point()
    back = affine_mixture_convolve(mu, CircleMeasure.dirac(0.0), 12).moments(12)
    assert np.max(np.abs(back - mu.moments(12))) < 1e-13


def test_affine_mixture_requires_atoms():
    import pytest

    from monoconv.errors import DomainError

    with pytest.raises(DomainError):
        affine_mixture_convolve(CircleMeasure.haar(8), two_point(), 8)


def test_affine_mixture_matches_composition():
    rng = np.random.default_rng(23)
    for _ in range(6):
        mu = rand_atomic(rng, 3)
        nu = rand_atomic(rng, 2)
        a = monotone_convolve(mu, nu, 16).moments(16)
        b = affine_mixture_convolve(mu, nu, 16).moments(16)
        assert np.max(np.abs(a - b)) < 1e-12


def test_output_is_valid_k():
    rng = np.random.default_rng(29)
    for _ in range(6):
        out = monotone_convolve(rand_atomic(rng, 4), rand_atomic(rng, 3), 32)
        assert validate_k(k_transform(out, 32)).all_ok


def test_order_256_convolution_of_close_atoms_is_a_valid_k_transform():
    # with e^{ik angle} rounded from the product k * angle, nu's moments were
    # off by 5.5e-14, the composition amplified that to 1e-10 in m_256 and
    # the Toeplitz section's least eigenvalue read -1.06e-9, below the floor
    mu = CircleMeasure.from_atoms([4.12958619870556, 3.761658768301539], [0.773321102428033, 0.22667889757196705])
    nu = CircleMeasure.from_atoms(
        [4.061193127367557, 3.9391912710804413, 4.62274141648288],
        [0.19977447422545122, 0.7943772752400603, 0.005848250534488497],
    )
    report = validate_k(k_transform(monotone_convolve(mu, nu, 256), 256))
    assert report.all_ok, report


def test_high_order_convolution_without_the_power_table():
    n = 1024
    mu = CircleMeasure.from_atoms([0.4, 2.9], [0.3, 0.7])
    nu = CircleMeasure.from_atoms([1.1, 3.7, 5.2], [0.5, 0.2, 0.3])
    got = monotone_convolve(mu, nu, n).moments(n)
    assert np.max(np.abs(got - affine_mixture_convolve(mu, nu, n).moments(n))) <= 1e-12
    # the (n + 1)^2 power table alone would be 16.8 MB
    psi, k_nu = mu.psi_series(n), k_transform(nu, n).series
    tracemalloc.start()
    try:
        psi.compose(k_nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
