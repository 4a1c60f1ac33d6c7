import warnings

import numpy as np
import pytest

from monoconv.convolution import monotone_convolve
from monoconv.errors import DomainError
from monoconv.generator import HerglotzGenerator
from monoconv.measure import CircleMeasure, k_transform, poisson_density
from monoconv.opmodel import (
    MatrixModel,
    check_monotone_independence,
    diagonal_unitary_model,
    k_composition_defect,
    k_operator,
    matrix_sqrt_hermitian,
    monotone_product,
    operator_moments,
    random_composition_suite,
    random_unitary,
    sandwich_counterexample,
    spectral_norm,
)


def rand_matrix(rng, d, scale=1.0):
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def rand_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def rand_product(rng, d1=2, d2=2):
    m1 = MatrixModel(d1, rand_state(rng, d1), {"X": rand_matrix(rng, d1), "Z": rand_matrix(rng, d1)})
    m2 = MatrixModel(d2, rand_state(rng, d2), {"Y": rand_matrix(rng, d2)})
    return monotone_product(m1, m2), m1, m2


# -- the product construction ---------------------------------------------------


def test_trivial_second_factor_collapses():
    rng = np.random.default_rng(0)
    m1 = MatrixModel(3, rand_state(rng, 3), {"X": rand_matrix(rng, 3)})
    m2 = MatrixModel(1, [1.0], {"Y": [[0.25]]})
    prod = monotone_product(m1, m2)
    assert prod.dim == 3
    assert np.allclose(prod.operators["X"], m1.operators["X"], atol=0)
    assert abs(prod.expectation("X") - m1.expectation("X")) < 1e-15


def test_state_values_preserved():
    rng = np.random.default_rng(1)
    prod, m1, m2 = rand_product(rng, 2, 3)
    assert abs(prod.expectation("X") - m1.expectation("X")) < 1e-14
    assert abs(prod.expectation("Y") - m2.expectation("Y")) < 1e-14


def test_sandwich_identities():
    rng = np.random.default_rng(2)
    prod, m1, m2 = rand_product(rng)
    X, Y, Z = (prod.operators[n] for n in ("X", "Y", "Z"))
    # operator identity: X Y Z = Phi(Y) X Z for left X, Z and right Y
    assert np.linalg.norm(X @ Y @ Z - prod.expectation(Y) * (X @ Z), 2) < 1e-12
    # scalar identity with the roles swapped
    lhs = prod.expectation(Y @ X @ Y)
    rhs = prod.expectation(Y) * prod.expectation(X) * prod.expectation(Y)
    assert abs(lhs - rhs) < 1e-12


def test_name_collision_rejected():
    rng = np.random.default_rng(3)
    m1 = MatrixModel(2, rand_state(rng, 2), {"X": rand_matrix(rng, 2)})
    m2 = MatrixModel(2, rand_state(rng, 2), {"X": rand_matrix(rng, 2)})
    with pytest.raises(ValueError):
        monotone_product(m1, m2)


@pytest.mark.parametrize("state", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]])
def test_model_rejects_a_non_finite_state(state):
    # abs(nan - 1) > 1e-12 is False, so a bare distance test would pass NaN
    with pytest.raises(ValueError, match="unit norm"):
        MatrixModel(2, state, {"X": np.eye(2)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_model_rejects_non_finite_operators(bad):
    mat = np.eye(2, dtype=complex)
    mat[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        MatrixModel(2, [1.0, 0.0], {"X": mat})


def test_diagonal_unitary_model_rejects_negative_weights():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no square root of a negative weight is taken
        with pytest.raises(ValueError, match="nonnegative"):
            diagonal_unitary_model([0, 1], [1.5, -0.5], "U")


@pytest.mark.parametrize(
    "angles, weights, message",
    [
        ([np.nan, 1.0], [0.5, 0.5], "atom angles and weights must be finite"),
        ([0.0, 1.0], [np.inf, 0.5], "atom angles and weights must be finite"),
        ([0.0, 1.0], [np.nan, 0.5], "atom angles and weights must be finite"),
        ([0.0, 1.0, 2.0], [0.5, 0.5], "angles and weights must be 1-d sequences of equal length"),
    ],
    ids=["nan-angle", "inf-weight", "nan-weight", "length-mismatch"],
)
def test_diagonal_unitary_model_checks_atoms_as_measures_do(angles, weights, message):
    with pytest.raises(ValueError) as exc:
        diagonal_unitary_model(angles, weights, "U")
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        CircleMeasure.from_atoms(angles, weights)
    assert str(exc.value) == message


def test_every_atom_constructor_stores_the_same_canonical_angles():
    angles = [2 * np.pi, -2 * np.pi, -1e-300, 7.0]
    expected = np.array([0.0, 0.0, 0.0, 7.0 - 2 * np.pi])
    mu = CircleMeasure.from_atoms(angles, [0.25] * 4)
    gen = HerglotzGenerator(0.0, [(a, 0.25) for a in angles])
    model = diagonal_unitary_model(angles, [0.25] * 4, "U")
    for stored in (mu.atoms[0], gen._angles):
        assert stored.tobytes() == expected.tobytes()  # +0.0, never 2*pi or -0.0
    assert np.diag(model.operators["U"]).tobytes() == np.exp(1j * expected).tobytes()


def test_independence_defect_of_product():
    rng = np.random.default_rng(4)
    prod, _, _ = rand_product(rng, 2, 3)
    assert check_monotone_independence(prod, ["X", "Z"], ["Y"], word_len=4) <= 1e-10


def test_independence_fails_for_commuting_diagonals():
    d = np.diag([1.0, 2.0, 3.0])
    e = np.diag([0.5, -1.0, 2.0])
    state = np.array([0.6, 0.48, 0.64])
    model = MatrixModel(3, state / np.linalg.norm(state), {"D": d, "E": e})
    assert check_monotone_independence(model, ["D"], ["E"]) > 1e-3


def test_independence_vacuous_for_scalar_algebra():
    rng = np.random.default_rng(5)
    model = MatrixModel(2, rand_state(rng, 2), {"Y": rand_matrix(rng, 2)})
    assert check_monotone_independence(model, [], ["Y"]) == 0.0


# -- operator K-transforms -------------------------------------------------------


def test_k_operator_scalar_rotation():
    phi = 0.9
    x = np.exp(1j * phi) * np.eye(3)
    omega = np.array([1.0, 0, 0])
    for z in (0.3, -0.2 + 0.4j):
        assert abs(k_operator(x, omega, z) - np.exp(1j * phi) * z) < 1e-14


def test_k_operator_zero():
    assert k_operator(np.zeros((2, 2)), [1.0, 0.0], 0.5) == 0


def test_k_operator_symmetric_bernoulli_on_half_line():
    a = 0.5
    m = np.array([[1.0, a], [a, 1.0]])
    omega = np.array([0.0, 1.0])
    # distribution is (delta_{1-a} + delta_{1+a})/2; compare against the
    # moment series of that measure
    z = 0.2
    mom = np.array([0.5 * ((1 - a) ** k + (1 + a) ** k) for k in range(1, 120)])
    psi = np.sum(mom * z ** np.arange(1, 120))
    expect = psi / (1 + psi)
    assert abs(k_operator(m, omega, z) - expect) < 1e-13
    mk = operator_moments(m, omega, 6)
    assert np.max(np.abs(mk - mom[:6])) < 1e-13


def test_k_operator_gate():
    with pytest.raises(DomainError):
        k_operator(2.0 * np.eye(2), [1.0, 0.0], 0.9)


def test_k_operator_grid_matches_pointwise_calls():
    rng = np.random.default_rng(19)
    x = rand_matrix(rng, 4)
    x = 0.9 * x / spectral_norm(x)
    omega = rand_state(rng, 4)
    zs = 0.8 * np.sqrt(rng.uniform(size=(3, 5))) * np.exp(2j * np.pi * rng.uniform(size=(3, 5)))
    grid = k_operator(x, omega, zs)
    assert grid.shape == zs.shape
    pointwise = np.array([k_operator(x, omega, z) for z in zs.ravel()]).reshape(zs.shape)
    assert np.all(np.abs(grid - pointwise) <= 1e-15 * (1.0 + np.abs(pointwise)))
    assert type(k_operator(x, omega, 0.3)) is complex
    assert type(k_operator(x, omega, np.complex128(0.3j))) is complex


def test_k_operator_grid_rejects_one_point_outside_the_bound():
    x = 0.5 * np.eye(2)
    zs = np.array([0.1, 0.5j, 2.0, -0.3])
    with pytest.raises(DomainError):
        k_operator(x, [1.0, 0.0], zs)


def test_k_operator_admits_a_unitary_near_the_circle():
    rng = np.random.default_rng(20)
    u = random_unitary(rng, 3)
    omega = rand_state(rng, 3)
    zs = 0.999 * np.exp(2j * np.pi * np.arange(16) / 16)
    k = k_operator(u, omega, zs)
    assert np.all(np.isfinite(k)) and np.all(np.abs(k) <= 1.0 + 1e-9)
    with pytest.raises(DomainError):
        k_operator(u, omega, 1.0 + 1e-9)


# -- composition rule --------------------------------------------------------------


def unitary_product_model(angles1, weights1, angles2, weights2):
    """Unitary U from an atomic measure on the left, V on the right."""
    m1 = diagonal_unitary_model(angles1, weights1, "U")
    m2 = diagonal_unitary_model(angles2, weights2, "V")
    m1 = MatrixModel(m1.dim, m1.state, {**m1.operators, "One": np.eye(m1.dim)})
    prod = monotone_product(m1, m2)
    eye = np.eye(prod.dim)
    u_bar = eye + prod.operators["U"] - prod.operators["One"]  # 1 + J1(U - 1)
    return prod.with_operator("Ubar", u_bar), u_bar


def test_unitary_corollary_both_orders():
    rng = np.random.default_rng(11)
    angles1, w1 = rng.uniform(0, 2 * np.pi, 3), rng.dirichlet(np.ones(3))
    angles2, w2 = rng.uniform(0, 2 * np.pi, 2), rng.dirichlet(np.ones(2))
    model, u_bar = unitary_product_model(angles1, w1, angles2, w2)
    v_op = model.operators["V"]
    omega = model.state
    mu = CircleMeasure.from_atoms(angles1, w1)
    nu = CircleMeasure.from_atoms(angles2, w2)
    k_mu = k_transform(mu, 48)
    k_nu = k_transform(nu, 48)
    for z in (0.25, 0.2j, -0.15 + 0.2j):
        k_uv = k_operator(u_bar @ v_op, omega, z)
        k_vu = k_operator(v_op @ u_bar, omega, z)
        composed = k_mu.eval(k_nu.eval(z))
        assert abs(k_uv - composed) < 1e-10
        assert abs(k_vu - composed) < 1e-10


def test_composition_defect_via_structural_checker():
    rng = np.random.default_rng(12)
    prod, _, _ = rand_product(rng, 2, 3)
    # V1 = phase + J1(X), V2 = conj(phase) + J1(Z) keeps V2 V1 - 1 in the image
    phase = np.exp(0.7j)
    eye = np.eye(prod.dim)
    model = prod.with_operator("V1", phase * eye + 0.3 * prod.operators["X"])
    model = model.with_operator("V2", np.conj(phase) * eye + 0.3 * prod.operators["Z"])
    model = model.with_operator("W", 0.5 * model.operators["Y"] / spectral_norm(model.operators["Y"]))
    zs = 0.15 * np.exp(2j * np.pi * np.arange(8) / 8)
    assert k_composition_defect(model, "V1", "V2", "W", zs) < 1e-10


def test_scalar_w_reduces_to_rescaling():
    rng = np.random.default_rng(13)
    prod, _, _ = rand_product(rng, 2, 2)
    c = 0.4
    eye = np.eye(prod.dim)
    model = prod.with_operator("V1", eye + 0.3 * prod.operators["X"])
    model = model.with_operator("V2", eye + 0.3 * prod.operators["Z"])
    model = model.with_operator("Wc", c * eye)
    omega = model.state
    v1v2 = model.operators["V1"] @ model.operators["V2"]
    for z in (0.2, -0.1 + 0.15j):
        lhs = k_composition_defect(model, "V1", "V2", "Wc", [z])
        direct = abs(
            k_operator(model.operators["V1"] @ model.operators["Wc"] @ model.operators["V2"], omega, z)
            - k_operator(v1v2, omega, c * z)
        )
        assert lhs < 1e-10 and direct < 1e-10


def test_positive_corollary():
    rng = np.random.default_rng(14)
    d1, d2 = 2, 3
    h = rand_matrix(rng, d1)
    a = 0.4 * (h + h.conj().T) / spectral_norm(h + h.conj().T)  # Hermitian, small
    g = rand_matrix(rng, d2)
    b = g @ g.conj().T
    b = 0.8 * b / spectral_norm(b)  # positive, norm <= 0.8
    m1 = MatrixModel(d1, rand_state(rng, d1), {"A": a})
    m2 = MatrixModel(d2, rand_state(rng, d2), {"B": b})
    prod = monotone_product(m1, m2)
    x = np.eye(prod.dim) + prod.operators["A"]  # positive, X - 1 in the left image
    y = prod.operators["B"]
    sx = matrix_sqrt_hermitian(x)
    omega = prod.state
    for z in (0.15, 0.1j):
        lhs = k_operator(sx @ y @ sx, omega, z)
        rhs = k_operator(x, omega, k_operator(y, omega, z))
        assert abs(lhs - rhs) < 1e-10


def test_hypothesis_violation_detected():
    rng = np.random.default_rng(15)
    prod, _, _ = rand_product(rng, 2, 2)
    eye = np.eye(prod.dim)
    model = prod.with_operator("V1", 1.5 * eye + 0.3 * prod.operators["X"])
    model = model.with_operator("V2", eye)
    model = model.with_operator("W", 0.4 * model.operators["Y"] / spectral_norm(model.operators["Y"]))
    with pytest.raises(DomainError):
        k_composition_defect(model, "V1", "V2", "W", [0.1])


def test_random_suite_small():
    report = random_composition_suite(seed=7, cases=20)
    assert report["max_defect"] <= 1e-10


# -- half-line counterexample -------------------------------------------------------


def test_sandwich_formulas_on_grid():
    for a in (0.3, 0.5, 0.9):
        for b in (0.3, 0.5, 0.9):
            rep = sandwich_counterexample(a, b)
            assert rep.sqrt_formula_defect <= 1e-12
            assert np.max(np.abs(np.array(rep.eigenvalues_xyx) - rep.eigenvalues_formula)) < 1e-10
            assert np.max(np.abs(np.array(rep.eigenvalues_yxy) - rep.eigenvalues_formula)) < 1e-10
            assert abs(rep.second_moment_xyx - (1 + b * b + a * a)) < 1e-10
            expect = 1 + b * b + (a * a / 2) * (1 + np.sqrt(1 - b * b))
            assert abs(rep.second_moment_yxy - expect) < 1e-10
            # the two convolution candidates genuinely differ
            assert abs(rep.second_moment_xyx - rep.second_moment_yxy) > 1e-3


def test_sandwich_factors_are_monotonically_independent():
    # the explicit 4x4 pair realizes X - 1 (left) and Y - 1 (right)
    # monotonically independent in the state e_4
    a, b = 0.6, 0.4
    p_omega = np.diag([0.0, 1.0])
    m2a = np.array([[1.0, a], [a, 1.0]])
    m2b = np.array([[1.0, b], [b, 1.0]])
    x = np.eye(4) + np.kron(p_omega, m2a - np.eye(2))
    y = np.kron(m2b, np.eye(2))
    omega = np.zeros(4)
    omega[3] = 1.0
    model = MatrixModel(4, omega, {"Xm1": x - np.eye(4), "Ym1": y - np.eye(4)})
    assert check_monotone_independence(model, ["Xm1"], ["Ym1"], word_len=3) <= 1e-12


def test_sandwich_spectra_agree():
    rep = sandwich_counterexample(0.7, 0.4)
    assert np.max(np.abs(np.array(rep.eigenvalues_xyx) - rep.eigenvalues_yxy)) < 1e-10


def test_sandwich_collapses_as_a_vanishes():
    rep = sandwich_counterexample(1e-6, 0.5)
    assert abs(rep.second_moment_xyx - 1.25) < 1e-5
    assert abs(rep.second_moment_yxy - 1.25) < 1e-5


def test_sandwich_parameter_domain():
    with pytest.raises(DomainError):
        sandwich_counterexample(0.0, 0.5)


# -- moment bridge -------------------------------------------------------------------


def test_moment_bridge_operator_vs_convolution():
    rng = np.random.default_rng(16)
    for _ in range(2):
        n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        angles1, w1 = rng.uniform(0, 2 * np.pi, n1), rng.dirichlet(np.ones(n1))
        angles2, w2 = rng.uniform(0, 2 * np.pi, n2), rng.dirichlet(np.ones(n2))
        model, u_bar = unitary_product_model(angles1, w1, angles2, w2)
        uv = u_bar @ model.operators["V"]
        got = operator_moments(uv, model.state, 12)
        mu = CircleMeasure.from_atoms(angles1, w1)
        nu = CircleMeasure.from_atoms(angles2, w2)
        expect = monotone_convolve(mu, nu, 12).moments(12)
        assert np.max(np.abs(got - expect)) < 1e-10


# -- helpers --------------------------------------------------------------------------


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m = rand_matrix(rng, int(rng.integers(2, 7)))
        top = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(spectral_norm(m) - top) < 1e-12 * top


def power_iteration_norm(x, tol=1e-6, max_iter=200):
    """The former norm estimate: power iteration on x* x, stopped on a
    relative change below ``tol``.  Its Rayleigh quotient never exceeds the
    true ||x||^2, so a stop before convergence underestimates."""
    g = x.conj().T @ x
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(x.shape[1]) + 1j * rng.standard_normal(x.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        v = g @ v
        v /= np.linalg.norm(v)
        lam_new = float(np.real(np.vdot(v, g @ v)))
        if abs(lam_new - lam) <= tol * lam_new:
            return float(np.sqrt(lam_new))
        lam = lam_new
    return float(np.sqrt(lam))


def test_k_operator_rejects_z_that_a_norm_estimate_would_admit():
    # two nearly equal top singular values stall the power iteration early
    x = np.diag([0.5, 0.4999, 0.2]).astype(complex)
    z = 2.0001  # outside |z| < 1/||x|| = 2, inside 1/estimate
    assert abs(z) < 1.0 / power_iteration_norm(x)
    assert spectral_norm(x) == 0.5
    with pytest.raises(DomainError):
        k_operator(x, [1.0, 0.0, 0.0], z)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(18)
    u = random_unitary(rng, 4)
    assert np.linalg.norm(u.conj().T @ u - np.eye(4), 2) < 1e-12


def test_sqrt_rejects_indefinite():
    with pytest.raises(DomainError):
        matrix_sqrt_hermitian(np.diag([1.0, -1.0]))


def _independence(**counts):
    prod, _, _ = rand_product(np.random.default_rng(4), 2, 3)
    return check_monotone_independence(prod, ["X", "Z"], ["Y"], **counts)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: poisson_density(CircleMeasure([0.0], [1.0]), 0.5, 2.5), "grid_size"),
        (lambda: poisson_density(CircleMeasure([0.0], [1.0]), 0.5, 0), "grid_size"),
        (lambda: _independence(word_len=0), "word_len"),
        (lambda: _independence(word_len=1.5), "word_len"),
        (lambda: _independence(trials=-1), "trials"),
        (lambda: _independence(trials=0), "trials"),
        (lambda: operator_moments(np.eye(2), [1.0, 0.0], -1), "n"),
        (lambda: operator_moments(np.eye(2), [1.0, 0.0], 2.5), "n"),
    ],
)
def test_integer_arguments_are_checked(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        call()


def test_integral_arguments_of_another_type_are_taken():
    assert poisson_density(CircleMeasure([0.0], [1.0]), 0.5, 4.0).shape == (4,)
    assert _independence(word_len=np.int64(2), trials=3.0) <= 1e-10
    assert operator_moments(np.eye(2), [1.0, 0.0], 0).shape == (0,)
