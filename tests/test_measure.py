import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reciprocal_forward

from monoconv.errors import DomainError
from monoconv.measure import (
    CircleMeasure,
    KTransform,
    k_transform,
    moments_from_k,
    poisson_density,
    validate_k,
)
from monoconv.series import TruncatedSeries


def rand_atomic(rng, max_atoms=8, min_atoms=1):
    n = int(rng.integers(min_atoms, max_atoms + 1))
    angles = rng.uniform(0, 2 * np.pi, n)
    w = rng.dirichlet(np.ones(n))
    return CircleMeasure.from_atoms(angles, w)


# -- moments ----------------------------------------------------------------


def test_moments_dirac():
    assert np.allclose(CircleMeasure.dirac(0.0).moments(10), np.ones(10), atol=0)


def long_double_moments(mu, n):
    """m_1..m_n of an atomic measure with k * angle and e^{ik angle} in long double."""
    k = np.arange(1, n + 1, dtype=np.longdouble)
    angles = np.asarray(mu.atoms[0], dtype=np.longdouble)
    return np.exp(1j * np.outer(k, angles)) @ np.asarray(mu.atoms[1], dtype=np.longdouble)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=1, max_size=4),
    st.data(),
    st.sampled_from([16, 256, 4096]),
)
def test_atomic_moments_match_long_double(angles, data, n):
    # the rounding of k * angle alone would reach about 2 n eps at order n
    raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(angles), max_size=len(angles)))
    mu = CircleMeasure.from_atoms(angles, np.array(raw) / sum(raw))
    err = np.max(np.abs(mu.moments(n) - long_double_moments(mu, n)))
    assert err < n * np.finfo(float).eps


def test_moments_two_point_symmetric():
    mu = CircleMeasure.from_atoms([0.0, np.pi], [0.5, 0.5])
    m = mu.moments(8)
    assert np.allclose(m, [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-15)


def test_moments_uniform_atoms_vanish():
    mu = CircleMeasure.uniform_atoms(64)
    m = mu.moments(63)
    assert np.max(np.abs(m)) < 1e-13  # root-of-unity sums cancel


def test_moment_representation_passthrough_and_bounds():
    mu = CircleMeasure.from_moments([0.5, 0.25j])
    assert np.allclose(mu.moments(2), [0.5, 0.25j], atol=0)
    with pytest.raises(DomainError):
        mu.moments(3)
    with pytest.raises(ValueError):
        CircleMeasure.from_moments([2.0])


def test_weights_validation():
    with pytest.raises(ValueError):
        CircleMeasure.from_atoms([0.0], [0.7])
    with pytest.raises(ValueError):
        CircleMeasure.from_atoms([0.0, 1.0], [1.5, -0.5])


@pytest.mark.parametrize(
    "angles, weights",
    [([np.nan], [1.0]), ([np.inf], [1.0]), ([0.0, 1.0], [np.nan, 1.0]), ([0.0], [np.inf])],
)
def test_non_finite_atoms_rejected(angles, weights):
    with pytest.raises(ValueError, match="finite"):
        CircleMeasure.from_atoms(angles, weights)


@pytest.mark.parametrize("moments", [[np.nan], [0.5, complex(0.0, np.nan)]])
def test_non_finite_moments_rejected(moments):
    with pytest.raises(ValueError, match="finite"):
        CircleMeasure.from_moments(moments)


# -- K-transform -------------------------------------------------------------


def test_k_transform_dirac_closed_form():
    phi = 1.2345
    k = k_transform(CircleMeasure.dirac(phi), 12)
    expect = np.zeros(13, dtype=complex)
    expect[1] = np.exp(1j * phi)
    assert np.allclose(k.series.coeffs, expect, atol=0)
    assert abs(k.eval(0.3 + 0.2j) - np.exp(1j * phi) * (0.3 + 0.2j)) == 0


def test_k_transform_haar_is_zero():
    k = k_transform(CircleMeasure.haar(16), 16)
    assert np.allclose(k.series.coeffs, 0, atol=0)
    assert k.eval(0.3 + 0.2j) == 0 and np.all(k.eval(np.array([0.5, -0.9j])) == 0)


def test_k_transform_two_point_is_square():
    mu = CircleMeasure.from_atoms([0.0, np.pi], [0.5, 0.5])
    k = k_transform(mu, 12)
    expect = np.zeros(13, dtype=complex)
    expect[2] = 1.0
    assert np.max(np.abs(k.series.coeffs - expect)) < 1e-13


def test_k_transform_of_unit_is_identity():
    k = k_transform(CircleMeasure.dirac(0.0), 8)
    assert np.allclose(k.series.coeffs, TruncatedSeries.identity(8).coeffs, atol=0)


# -- inversion ---------------------------------------------------------------


def test_moments_from_square():
    m = moments_from_k(KTransform.monomial(2, 12), 12)
    assert np.allclose(m, [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1], atol=1e-14)


def test_moments_from_rotation():
    phi = 0.7
    m = moments_from_k(KTransform.dirac(phi, 10), 10)
    assert np.allclose(m, np.exp(1j * phi * np.arange(1, 11)), atol=1e-13)


def test_moments_from_haar():
    assert np.allclose(moments_from_k(KTransform.haar(10), 10), 0, atol=0)


def test_short_transform_gives_no_further_moments():
    # a series of order 8 determines m_1..m_8 only, whatever measure it came from
    with pytest.raises(DomainError):
        moments_from_k(KTransform.dirac(0.7, 8), 16)
    with pytest.raises(DomainError):
        k_transform(CircleMeasure.haar(8), 16)


@pytest.mark.parametrize("n", [0, -3])
def test_moments_from_k_rejects_order_below_one(n):
    with pytest.raises(ValueError, match=f"^truncation order must be >= 1, got {n}$"):
        moments_from_k(KTransform.dirac(0.7, 8), n)


@pytest.mark.parametrize("coeffs", [[0.0, np.nan], [0.0, 0.5, complex(np.inf, 0.0)]])
def test_k_transform_rejects_non_finite_coefficients(coeffs):
    with pytest.raises(ValueError, match="finite"):
        KTransform.from_coefficients(coeffs)


@pytest.mark.parametrize(
    "mu",
    [CircleMeasure.dirac(0.3), CircleMeasure.from_atoms([0.5, 2.0], [0.5, 0.5]), CircleMeasure.from_moments([0.1, 0.2])],
    ids=["dirac", "two-atoms", "moments"],
)
@pytest.mark.parametrize("n", [0, -3])
def test_k_transform_rejects_order_below_one(mu, n):
    with pytest.raises(ValueError, match=f"^truncation order must be >= 1, got {n}$"):
        k_transform(mu, n)


def test_round_trip_random_atomic():
    # each direction is one reciprocal, through (1 + psi)(1 - K) = 1, so the
    # round-trip error grows about linearly in the order
    eps = np.finfo(float).eps
    rng = np.random.default_rng(21)
    orders = (24, 64, 128, 256)
    for n in orders:
        for _ in range(25):
            mu = rand_atomic(rng, max_atoms=5, min_atoms=2)
            m = moments_from_k(k_transform(mu, n), n)
            assert np.max(np.abs(m - mu.moments(n))) < n * eps
    # a point mass skips psi -> K: K = e^{i angle} z, and its moments are
    # the powers of e^{i angle}, against e^{ik angle} with k * angle exact
    for n in orders:
        mu = CircleMeasure.dirac(rng.uniform(0, 2 * np.pi))
        m = moments_from_k(k_transform(mu, n), n)
        assert np.max(np.abs(m - mu.moments(n))) < n * eps


@pytest.mark.parametrize("n", [256, 1024])
def test_reciprocal_of_one_plus_psi_matches_long_double(n):
    # 1/(1 + psi) = 1 - K, whose coefficients are at most 1 in modulus
    eps = np.finfo(float).eps
    rng = np.random.default_rng(n)
    for _ in range(10):
        a = (1 + rand_atomic(rng, max_atoms=5, min_atoms=2).psi_series(n)).coeffs
        want = reciprocal_forward(a, np.clongdouble)
        got = TruncatedSeries(a).reciprocal().coeffs
        assert np.max(np.abs(got - want)) <= 0.1 * n * eps * np.max(np.abs(want))


def test_reciprocal_at_the_order_cap_runs_in_linear_memory():
    f = 1 + rand_atomic(np.random.default_rng(4096), max_atoms=5, min_atoms=2).psi_series(4096)
    tracemalloc.start()
    try:
        f.reciprocal()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # b and the last step's full convolution are 64 KiB and 128 KiB
    assert peak < 2**20


# -- validation --------------------------------------------------------------


def test_validate_square():
    rep = validate_k(KTransform.monomial(2, 16))
    assert rep.all_ok


def test_validate_schur_violation():
    rep = validate_k(KTransform.from_coefficients([0, 2.0] + [0.0] * 14))
    assert rep.k_at_zero_ok and not rep.schur_bound_ok


def test_validate_nonzero_origin():
    rep = validate_k(TruncatedSeries([0.5, 1.0] + [0.0] * 14))
    assert not rep.k_at_zero_ok


def test_validate_order_zero_has_no_moments_to_check():
    rep = validate_k(TruncatedSeries([0.0]))
    assert rep.all_ok
    assert (rep.max_grid_modulus, rep.min_toeplitz_eigenvalue) == (0.0, np.inf)


def test_validate_random_atomic():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rep = validate_k(k_transform(rand_atomic(rng), 32))
        assert rep.all_ok, rep


# -- Poisson density ---------------------------------------------------------


def test_poisson_haar_constant():
    p = poisson_density(CircleMeasure.haar(16), 0.8, 128)
    assert np.allclose(p, 1.0, atol=1e-14)


def test_poisson_dirac_peak_and_mass():
    p = poisson_density(CircleMeasure.dirac(0.0), 0.9, 256)
    assert np.argmax(p) == 0
    assert abs(np.mean(p) - 1.0) < 1e-6  # trapezoid of a periodic function
    assert np.min(p) > -1e-9


def test_poisson_two_peaks():
    mu = CircleMeasure.from_atoms([0.0, np.pi], [0.5, 0.5])
    p = poisson_density(mu, 0.9, 256)
    assert np.argmax(p) in (0, 128)
    assert abs(p[0] - p[128]) < 1e-9  # symmetry
    assert abs(np.mean(p) - 1.0) < 1e-6


@pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
def test_poisson_density_matches_closed_form_kernel(r):
    angles = np.array([0.3, 2.0, 4.5])
    weights = np.array([0.5, 0.3, 0.2])
    grid_size = 1024
    theta = 2 * np.pi * np.arange(grid_size) / grid_size
    kernel = (1 - r**2) / (1 - 2 * r * np.cos(theta[:, None] - angles) + r**2)
    p = poisson_density(CircleMeasure.from_atoms(angles, weights), r, grid_size)
    assert np.max(np.abs(p - kernel @ weights)) < 2e-9  # tail target 1e-9


def test_poisson_radius_domain():
    with pytest.raises(DomainError):
        poisson_density(CircleMeasure.dirac(0.0), 1.0, 16)
