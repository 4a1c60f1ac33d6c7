import numpy as np
import pytest
from oracles import herglotz_sum, vector_field

from monoconv._util import ring_grid
from monoconv.errors import DomainError
from monoconv.generator import HerglotzGenerator


def rand_gen(rng, max_atoms=5, with_b=True):
    n = int(rng.integers(1, max_atoms + 1))
    rho = [(a, w) for a, w in zip(rng.uniform(0, 2 * np.pi, n), rng.uniform(0.05, 0.6, n))]
    b = rng.uniform(-1, 1) if with_b else 0.0
    return HerglotzGenerator(b=b, rho=rho)


def test_trivial_generator():
    gen = HerglotzGenerator()
    assert gen.eval(0.3 + 0.2j) == 0
    assert gen.beta == 0
    # without atoms u is the constant i b, at a scalar and over an array
    gen = HerglotzGenerator(b=0.5)
    value = gen.eval(0.3 + 0.2j)
    assert type(value) is complex and value == 0.5j
    values = gen.eval(np.array([[0.1, -0.4j], [0.0, 0.6]]))
    assert values.shape == (2, 2) and np.array_equal(values, np.full((2, 2), 0.5j))


@pytest.mark.parametrize("n_atoms", [0, -3])
def test_uniform_needs_an_atom(n_atoms):
    with pytest.raises(ValueError, match="at least one atom"):
        HerglotzGenerator.uniform(1.0, n_atoms)


def test_single_atom_closed_form():
    gen = HerglotzGenerator(0.0, [(0.0, 1.0)])
    assert gen.eval(0.0) == 1.0
    for z in (0.3, -0.5j, 0.2 + 0.4j):
        assert abs(gen.eval(z) - (1 + z) / (1 - z)) < 1e-14


def test_uniform_atoms_exact_closed_form():
    # 64 equal atoms of mass 1: u(z) = 1 + 2 z^64 / (1 - z^64) exactly,
    # so u is 1 up to 1e-12 only for |z| <= 0.65; at 0.9 the gap is ~2.4e-3
    gen = HerglotzGenerator.uniform()
    for r in (0.3, 0.6, 0.9):
        for z in r * np.exp(2j * np.pi * np.arange(8) / 8):
            exact = 1 + 2 * z**64 / (1 - z**64)
            assert abs(gen.eval(z) - exact) < 1e-12
    for z in 0.6 * np.exp(2j * np.pi * np.arange(8) / 8):
        assert abs(gen.eval(z) - 1.0) < 1e-12
    assert abs(gen.eval(0.9) - 1.0) > 1e-4  # the cancellation is not unconditional


def test_domain_error_outside_disk():
    gen = HerglotzGenerator(0.0, [(0.0, 1.0)])
    with pytest.raises(DomainError):
        gen.eval(1.0)


def test_vector_field_constantish():
    gen = HerglotzGenerator.uniform()
    v = vector_field(gen, 16)
    expect = np.zeros(17)
    expect[1] = -1.0
    assert np.max(np.abs(v.coeffs - expect)) < 1e-13


def test_vector_field_single_atom_series():
    # v(z) = -z (1+z)/(1-z) = -z - 2 z^2 - 2 z^3 - ...
    gen = HerglotzGenerator(0.0, [(0.0, 1.0)])
    v = vector_field(gen, 8)
    expect = np.array([0, -1, -2, -2, -2, -2, -2, -2, -2], dtype=complex)
    assert np.max(np.abs(v.coeffs - expect)) < 1e-14


def test_series_matches_pointwise():
    rng = np.random.default_rng(31)
    for _ in range(6):
        gen = rand_gen(rng)
        u = gen.series(64)
        v = vector_field(gen, 64)
        for z in ring_grid((0.2, 0.45), 6):
            # geometric truncation tail of the atom expansions
            tail = 2 * gen.mass * abs(z) ** 64 / (1 - abs(z))
            assert abs(u(z) - gen.eval(z)) <= 1e-13 + tail
            assert abs(v(z) - gen.vector_field_at(z)) <= 1e-13 + tail


def test_positive_real_part_on_grid():
    rng = np.random.default_rng(37)
    grid = ring_grid((0.3, 0.6, 0.9, 0.95), 64)
    for _ in range(8):
        gen = rand_gen(rng)
        vals = gen.eval(grid)
        assert float(np.min(np.real(vals))) >= -1e-12


def test_one_division_form_matches_the_defining_sum():
    # (i b - W) + sum 2 w omega/(omega - z) against i b + sum w (omega + z)/(omega - z),
    # up to 64 atoms and out to |z| = 0.999, where Re u is small against the terms
    rng = np.random.default_rng(59)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        rho = list(zip(rng.uniform(0, 2 * np.pi, n), rng.uniform(0.01, 1.0, n)))
        b = rng.uniform(-1, 1)
        radii = np.concatenate([rng.uniform(0.0, 0.999, 16), np.full(16, 0.999)])
        z = radii * np.exp(1j * rng.uniform(0, 2 * np.pi, 32))
        gen, want = HerglotzGenerator(b=b, rho=rho), herglotz_sum(b, rho, z)
        u = gen.eval(z)
        assert np.max(np.abs(u - want) / np.abs(want)) <= 1e-12
        assert np.min(u.real) > 0.0
        assert np.array_equal(gen.vector_field_at(z), -z * u)


def test_eval_and_vector_field_keep_the_argument_shape():
    rho = [(0.5, 0.4), (3.0, 0.6)]
    gen = HerglotzGenerator(0.2, rho)
    for f in (gen.eval, gen.vector_field_at):
        assert type(f(0.3 - 0.1j)) is complex
        assert type(f(np.complex128(0.3 - 0.1j))) is complex
        assert type(f(np.array(0.3 - 0.1j))) is complex
        assert f(np.array([0.3 - 0.1j])).shape == (1,)
        assert f(np.array([[0.1, 0.2j, -0.3]])).shape == (1, 3)
    for z in (0.3 - 0.1j, np.array([0.3 - 0.1j, -0.5j])):
        want = herglotz_sum(0.2, rho, z)
        assert np.max(np.abs(gen.eval(z) - want)) <= 1e-15
        assert np.max(np.abs(gen.vector_field_at(z) + np.asarray(z) * want)) <= 1e-15


def test_only_eval_checks_the_disk():
    # the integrator evaluates the field at trial stages off the disk and
    # rejects such steps itself; eval keeps the domain check
    gen = HerglotzGenerator(0.0, [(0.0, 1.0)])
    for z in (1.0, 1.5j, np.array([0.2, -1.0])):
        with pytest.raises(DomainError):
            gen.eval(z)
    z = np.array([1.5j, -2.0])
    assert np.allclose(gen.vector_field_at(z), -z * (1 + z) / (1 - z))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(gen.vector_field_at(np.array([1.0]))).any()  # at the atom


def test_beta_is_exact():
    gen = HerglotzGenerator(b=0.25, rho=[(1.0, 0.5), (2.0, 0.75)])
    assert gen.beta == 1.25 + 0.25j


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        HerglotzGenerator(0.0, [(0.0, -0.1)])


@pytest.mark.parametrize(
    "b, rho",
    [(np.nan, ()), (np.inf, ()), (0.0, [(0.0, np.nan)]), (0.0, [(np.nan, 0.5)]), (0.0, [(1.0, np.inf)])],
)
def test_non_finite_parameters_rejected(b, rho):
    with pytest.raises(ValueError, match="finite"):
        HerglotzGenerator(b=b, rho=rho)
