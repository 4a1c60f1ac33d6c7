import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import evolve_by_unique, recursion_flow_coefficients

import monoconv.semigroup as semigroup
from monoconv._util import ring_grid
from monoconv.branching import BranchingGenerator, yule_flow
from monoconv.errors import DomainError, StepSizeUnderflowError
from monoconv.generator import HerglotzGenerator
from monoconv.measure import KTransform, validate_k
from monoconv.semigroup import (
    evolve,
    evolve_pointwise,
    first_moment_law,
    flow_coefficients,
    semigroup_defect,
)
from monoconv.series import TruncatedSeries


class ConstGen:
    """Exact constant generator u = 1 (linear flow e^{-t} z)."""

    beta = 1.0 + 0.0j

    def eval(self, z):
        return np.ones_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 1.0 + 0j

    def vector_field_at(self, z):
        return -z

    def series(self, n):
        c = np.zeros(n + 1, dtype=complex)
        c[0] = 1.0
        return TruncatedSeries(c)


def yule_taylor(alpha, k, t, n):
    """Independent Taylor oracle for the closed-form flow, via the
    generalized binomial series of (1 - w)^(-1/(k-1))."""
    q = np.exp(-alpha * t)
    s = 1.0 / (k - 1)
    w = 1.0 - q ** (k - 1)
    c = np.zeros(n + 1, dtype=complex)
    m = 0
    coef = 1.0
    while 1 + m * (k - 1) <= n:
        c[1 + m * (k - 1)] = q * coef * w**m
        coef *= (s + m) / (m + 1)
        m += 1
    return c


def rand_herglotz(rng):
    n = int(rng.integers(2, 5))
    rho = [(a, w) for a, w in zip(rng.uniform(0, 2 * np.pi, n), rng.uniform(0.1, 0.5, n))]
    return HerglotzGenerator(b=rng.uniform(-0.5, 0.5), rho=rho)


# -- pointwise evolution ------------------------------------------------------


def test_evolve_at_time_zero():
    assert evolve_pointwise(ConstGen(), 0.0, 0.4 + 0.1j) == 0.4 + 0.1j


def test_evolve_linear_flow():
    tol = 1e-10
    for z in (0.5, -0.3 + 0.4j, 0.8j):
        got = evolve_pointwise(ConstGen(), 1.7, z, tol)
        assert abs(got - np.exp(-1.7) * z) <= 10 * tol


def test_evolve_uniform_generator_acts_like_linear():
    gen = HerglotzGenerator.uniform()
    z = 0.45 - 0.2j
    assert abs(evolve_pointwise(gen, 1.0, z, 1e-10) - np.exp(-1) * z) < 1e-9


def test_evolve_matches_yule_closed_form():
    tol = 1e-10
    gen = BranchingGenerator.yule(1.0, 2)
    for t in (0.25, 1.0, 2.5):
        for z in (0.3, 0.5j, -0.4 + 0.3j):
            got = evolve_pointwise(gen, t, z, tol)
            assert abs(got - yule_flow(1.0, 2, t, z)) <= 10 * tol


def test_evolve_near_an_atom_matches_koebe_closed_form():
    # u = (1 + z)/(1 - z) gives K_t/(1 + K_t)^2 = e^{-t} z/(1 + z)^2, so K_t(z)
    # is the root inside the disk of c K^2 + (2c - 1) K + c = 0.  Near the
    # atom the first trial steps put Runge-Kutta stages outside the disk.
    # At 1 - 1e-9 and 1 - 1e-12 the field is about 2e9 and 2e12, so the
    # first steps are far below eps t; one point and the batch both get there.
    gen = HerglotzGenerator(b=0.0, rho=[(0.0, 1.0)])
    zs = np.array([0.5, 0.8, 0.9, 0.99, 1 - 1e-9, 1 - 1e-12])
    c = np.exp(-0.5) * zs / (1 + zs) ** 2
    exact = (1 - 2 * c - np.sqrt(1 - 4 * c)) / (2 * c)
    assert np.max(np.abs(evolve(gen, [0.5], zs)[0] - exact)) < 1e-9
    for z, k in zip(zs, exact):
        assert abs(evolve_pointwise(gen, 0.5, z) - k) < 1e-9


class OutwardGen:
    """v(z) = +z: K_t(z) = e^t z leaves the disk at t = -log|z|, and the field
    never raises, so only the integrator can keep the flow inside."""

    beta = -1.0 + 0.0j

    def vector_field_at(self, z):
        return z


def test_integrator_rejects_steps_that_leave_the_disk():
    gen = OutwardGen()
    got = evolve(gen, [0.05, 0.1], [0.9, 0.5])
    assert np.max(np.abs(got - np.exp([[0.05], [0.1]]) * [0.9, 0.5])) < 1e-9
    exit_time = -math.log(0.9)
    for t in (exit_time + 1e-6, 0.2, 1.0):
        for points in ([0.9, 0.5], [0.9]):
            # every trial step across |K| = 1 is rejected until the step size
            # underflows at the exit time; no step is accepted outside the disk
            with pytest.raises(StepSizeUnderflowError, match="step size underflow") as info:
                evolve(gen, [t], points)
            stuck_at = float(str(info.value).split("t=")[1].split()[0])
            assert abs(stuck_at - exit_time) < 1e-9


class ClosedDiskGen:
    """v(z) = z sqrt(1 - |z|^2), real only on the closed disk: NaN with a
    RuntimeWarning off it.  From |z| = 0.9, |K_t| = sin(2 atan(tan(a/2) e^t))
    with sin a = 0.9, which reaches 1 at t = -log tan(a/2) = 0.46714..."""

    beta = -1.0 + 0.0j

    def vector_field_at(self, z):
        return z * np.sqrt(1.0 - np.abs(z) ** 2)


def test_off_disk_stages_stay_silent():
    # late steps put stages past |K| = 1, where the field warns; the steps
    # are rejected and no warning leaves the integrator
    half_angle = math.asin(0.9) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evolve(ClosedDiskGen(), [0.467], [0.9])[0, 0]
    assert abs(got - math.sin(2 * math.atan(math.tan(half_angle) * math.exp(0.467)))) < 1e-9


def test_evolve_domain_checks():
    with pytest.raises(DomainError):
        evolve_pointwise(ConstGen(), 1.0, 1.0)
    with pytest.raises(DomainError):
        evolve_pointwise(ConstGen(), -0.5, 0.3)


def test_step_underflow_is_reported(monkeypatch):
    with pytest.raises(StepSizeUnderflowError):
        evolve_pointwise(ConstGen(), 1.0, 0.5, tol=1e-300)
    monkeypatch.setattr(semigroup, "_MAX_STEPS", 3)
    with pytest.raises(StepSizeUnderflowError, match="exceeded 3 steps"):
        evolve_pointwise(ConstGen(), 1.0, 0.5, tol=1e-12)


@pytest.mark.parametrize("tol", [np.inf, 0.0, -1e-10, np.nan])
def test_tolerance_must_be_positive_and_finite(tol):
    # an infinite tolerance would accept any step, even one whose stage left the disk
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        evolve(ConstGen(), [5.0], [0.5], tol)


# -- batched evolution --------------------------------------------------------

herglotz_generators = st.builds(
    lambda b, atoms: HerglotzGenerator(b=b, rho=atoms),
    st.floats(-1.0, 1.0),
    st.lists(st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.05, 0.8)), min_size=1, max_size=4),
)
rings = st.builds(
    lambda r, n, phase: r * np.exp(1j * (phase + 2 * np.pi * np.arange(n) / n)),
    st.floats(0.05, 0.85),
    st.integers(1, 12),
    st.floats(0.0, 2 * np.pi),
)
batch_times = st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(gen=herglotz_generators, ring=rings, times=batch_times)
def test_batched_values_match_pointwise(gen, ring, times):
    values = evolve(gen, times, ring)
    assert values.shape == (len(times), ring.size)
    for t, row in zip(times, values):
        for z, k in zip(ring, row):
            assert abs(k - evolve_pointwise(gen, t, z)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.2, 2.0), k=st.sampled_from([2, 3]), ring=rings, times=batch_times)
def test_batched_values_match_yule_closed_form(alpha, k, ring, times):
    values = evolve(BranchingGenerator.yule(alpha, k), times, ring)
    for t, row in zip(times, values):
        for z, got in zip(ring, row):
            assert abs(got - yule_flow(alpha, k, t, z)) <= 1e-8


def test_evolve_zero_time_rows_are_exact_in_mixed_batch():
    zs = ring_grid((0.3, 0.7), 5)
    values = evolve(HerglotzGenerator.uniform(), [0.8, 0.0, 1.3, 0.0], zs)
    assert np.array_equal(values[1], zs) and np.array_equal(values[3], zs)
    assert np.max(np.abs(values[0] - np.exp(-0.8) * zs)) < 1e-9
    assert evolve(HerglotzGenerator.uniform(), [0.0, 0.5], []).shape == (2, 0)


def test_evolve_batch_reports_step_failures(monkeypatch):
    zs = ring_grid((0.3, 0.6), 4)
    with pytest.raises(StepSizeUnderflowError):
        evolve(ConstGen(), [0.5, 1.0], zs, tol=1e-300)
    monkeypatch.setattr(semigroup, "_MAX_STEPS", 3)
    with pytest.raises(StepSizeUnderflowError, match="exceeded 3 steps"):
        evolve(ConstGen(), [0.5, 1.0], zs, tol=1e-12)


def test_evolve_batch_domain_checks():
    with pytest.raises(DomainError):
        evolve(ConstGen(), [1.0], [0.3, 0.2j, 1.0])
    with pytest.raises(DomainError):
        evolve(ConstGen(), [1.0, -0.1], [0.3, 0.2j])
    with pytest.raises(DomainError):
        evolve(ConstGen(), [float("nan")], [0.3])


bookkeeping_generators = [
    HerglotzGenerator(0.3, [(1.0, 0.5), (4.0, 0.25)]),
    BranchingGenerator.yule(0.8, 2),
]
repeated_times = st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.6, 1.0]) | st.floats(0.0, 1.5), max_size=6)


@settings(max_examples=40, deadline=None)
@given(
    gen=st.sampled_from(bookkeeping_generators),
    times=repeated_times,
    points=st.lists(st.complex_numbers(max_magnitude=0.85), min_size=1, max_size=3),
)
def test_time_grid_and_row_map_match_np_unique(gen, times, points):
    # repeats, any order, 0.0 next to -0.0 and no time at all, at one point and at several
    got = evolve(gen, times, points)
    want = evolve_by_unique(gen, times, points)
    assert got.shape == want.shape == (len(times), len(points))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, -1e-300])
@pytest.mark.parametrize("points", [[0.3], [0.3, 0.2j]])
def test_a_bad_time_anywhere_raises_the_time_message(bad, points):
    for times in ([bad], [0.5, bad], [bad, 0.0, 0.5, 0.5]):
        with pytest.raises(DomainError) as exc:
            evolve(ConstGen(), times, points)
        assert str(exc.value) == "evolution time must be finite and >= 0"
    # the points are checked first
    with pytest.raises(DomainError) as exc:
        evolve(ConstGen(), [bad], points + [1.0])
    assert str(exc.value) == "evolution is defined for |z| < 1"


# -- the DOP853 pair -----------------------------------------------------------


def test_dop853_tableau_order_conditions():
    # For y' = lam y the input of stage i is a polynomial in z = h lam:
    # Y_0 = 1 and Y_i = 1 + z sum_l A[i, l] Y_l.  Row 12 is one step, which
    # must match e^z through z^8; the error rows must sum to 0 and vanish
    # through z^4 (5th order) and z^2 (3rd order).  A mistyped digit
    # anywhere in the stage matrix or the error rows fails one of these.
    a = semigroup._DP_A
    inputs = np.zeros((13, 13))  # inputs[i, k] = [z^k] Y_i; degree <= i
    for i in range(13):
        inputs[i, 0] = 1.0
        inputs[i, 1:] += (a[i, :i] @ inputs[:i])[:-1]
    step = inputs[12]
    for k in range(9):
        assert abs(step[k] * math.factorial(k) - 1.0) <= 1e-13
    assert abs(step[9] * math.factorial(9) - 1.0) > 1e-3  # order exactly 8
    e5, e3 = semigroup._DP_E5, semigroup._DP_E3
    assert e5.shape == e3.shape == (13,) and np.all(e5.imag == 0) and np.all(e3.imag == 0)
    assert abs(e5.sum()) <= 1e-15 and abs(e3.sum()) <= 1e-15
    assert np.max(np.abs(e5.real @ inputs)[:5]) <= 1e-13
    assert np.max(np.abs(e3.real @ inputs)[:3]) <= 1e-13


class CountingGen:
    """Wraps a generator and counts its vector_field_at calls."""

    def __init__(self, gen):
        self.gen, self.beta, self.calls = gen, gen.beta, 0

    def vector_field_at(self, z):
        self.calls += 1
        return self.gen.vector_field_at(z)


class DiskCheckingGen(CountingGen):
    """A counted Herglotz field that raises DomainError off the disk, as ``eval`` does."""

    def vector_field_at(self, z):
        self.calls += 1
        return -z * self.gen.eval(z)


def test_a_field_that_raises_off_the_disk_takes_the_same_steps():
    # near the atom the first trial stages leave the disk: such a step is
    # rejected whether the field raises there or the integrator's own disk
    # check catches it, so both give the same values; raising stops the
    # step at its first stage off the disk, so it makes fewer calls
    gen = HerglotzGenerator(b=0.0, rho=[(0.0, 1.0)])
    zs = np.array([0.5, 0.8, 0.9, 0.99])
    counted, raising = CountingGen(gen), DiskCheckingGen(gen)
    assert np.array_equal(evolve(counted, [0.5], zs), evolve(raising, [0.5], zs))
    assert raising.calls < counted.calls


three_atoms = HerglotzGenerator(0.1, [(0.3, 0.5), (2.0, 0.3), (4.0, 0.2)])
ring64 = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)


# The Dormand-Prince 5(4) pair this integrator replaced made 337, 259, 139,
# 247 and 469 calls on these queries; DOP853 makes 229, 169, 85, 109 and 205.
# The exact counts pin the step sequence: a change that shifts an accept or
# reject decision, or adds or drops a field evaluation, moves them.
@pytest.mark.parametrize(
    "gen, query, dp5_calls, dop853_calls",
    [
        (three_atoms, lambda g: evolve(g, [1.9], [0.6 + 0.2j]), 337, 229),
        (three_atoms, lambda g: evolve(g, [0.5, 1.5], ring64), 259, 169),
        (BranchingGenerator.yule(1.0, 2), lambda g: evolve(g, [1.9], [0.6 + 0.2j]), 139, 85),
        (BranchingGenerator.yule(1.0, 2), lambda g: evolve(g, [0.5, 1.5], ring64), 247, 109),
        (three_atoms, lambda g: first_moment_law(g, 1.0), 469, 205),
    ],
    ids=["herglotz-point", "herglotz-ring", "yule-point", "yule-ring", "first-moment"],
)
def test_rhs_calls_stay_below_the_dp5_count(gen, query, dp5_calls, dop853_calls):
    counted = CountingGen(gen)
    query(counted)
    assert counted.calls == dop853_calls <= 0.75 * dp5_calls


@settings(max_examples=40, deadline=None)
@given(
    gen=herglotz_generators | st.builds(BranchingGenerator.yule, st.floats(0.2, 2.0), st.sampled_from([2, 3])),
    times=batch_times,
    r=st.floats(0.0, 0.85),
    phase=st.floats(0.0, 2 * np.pi),
)
def test_one_point_kernel_matches_the_array_kernel(gen, times, r, phase):
    # The point given twice takes the array kernel through the same step
    # sequence, so the field calls match exactly.  The values differ by
    # rounding only: the kernels sum the field and the error estimate in
    # different orders (Python against BLAS), after which the two runs round
    # independently.  Over 16000 random cases of this domain that noise
    # reached 7.5e-15, and it is mostly below 1e-15.
    z = complex(r * np.exp(1j * phase))
    one, two = CountingGen(gen), CountingGen(gen)
    single = evolve(one, times, [z])[:, 0]
    double = evolve(two, times, [z, z])
    assert np.array_equal(double[:, 0], double[:, 1])
    assert np.max(np.abs(single - double[:, 0])) <= 1e-14
    assert one.calls == two.calls


@pytest.mark.parametrize(
    "gen, z",
    [
        (three_atoms, 0.3 - 0.4j),
        (three_atoms, 1.5 + 2.0j),
        (HerglotzGenerator(0.0, [(0.0, 1.0)]), 1 + 0j),  # a Python division raises ZeroDivisionError
        (HerglotzGenerator.uniform(), 0.3 + 0.6j),
        (HerglotzGenerator.uniform(), 1 + 0j),
        (BranchingGenerator({2: 0.7, 4: 0.3}), -0.4 + 0.5j),
        (BranchingGenerator({40: 1.0}), 1.5 - 0.5j),
        (BranchingGenerator({40: 1.0}), 1e10 + 0j),  # a Python z**39 raises OverflowError
    ],
    ids=["3-atoms", "3-atoms-off-disk", "at-an-atom", "64-atoms", "64-atoms-at-an-atom",
         "branching", "branching-off-disk", "branching-overflow"],
)
def test_field_at_a_complex_matches_the_array_form(gen, z):
    # the one-point kernel passes a Python complex, which the generators take
    # in scalar arithmetic; where the array form gives inf or NaN, so must it
    with np.errstate(all="ignore"):
        want = complex(gen.vector_field_at(np.array([z]))[0])
        got = gen.vector_field_at(z)
    assert type(got) is complex
    if np.isfinite(want):
        assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)
    else:
        assert not np.isfinite(got)


def test_kernels_reject_a_stage_whose_modulus_overflows():
    # The field is 0 at the start and g (1 + i) after, so the input of stage
    # 2 is 0.5 + h A[2, 1] g (1 + i) = 0.5 + 1.5e308 (1 + i): abs() of that
    # complex raises OverflowError.  Both kernels reject the step instead.
    h, a = 100.0, float(semigroup._DP_A[2, 1])
    g = 1.5e308 / (h * a)
    with pytest.raises(OverflowError):
        abs(0.5 + h * a * complex(g, g))

    def jump_field():
        calls = []

        def field(z):
            value = complex(g, g) if calls else 0j
            calls.append(z)
            return value if type(z) is complex else np.full_like(z, value)

        return field

    with np.errstate(all="ignore"):
        assert semigroup._PointKernel(jump_field(), 0.5 + 0j).trial(h) == math.inf
        assert semigroup._BatchKernel(jump_field(), np.array([0.5, 0.5], dtype=complex)).trial(h) == math.inf


def test_high_degree_branching_flow_from_one_point():
    # the degree-40 field on the one-point kernel: the value the array kernel
    # gave before, and the closed form
    got = evolve(BranchingGenerator({40: 1.0}), [2.0], [0.9])[0, 0]
    assert abs(got - 0.121853483420468) <= 1e-14
    assert abs(got - yule_flow(1.0, 40, 2.0, 0.9)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    j=st.sampled_from([2, 3, 4]),
    lam=st.floats(0.5, 2.0),
    t=st.floats(0.05, 3.0),
    r=st.floats(0.0, 0.95),
    phase=st.floats(0.0, 2 * np.pi),
    tol=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]),
)
def test_evolve_meets_its_tolerance_against_yule_closed_form(j, lam, t, r, phase, tol):
    z = r * np.exp(1j * phase)
    got = evolve_pointwise(BranchingGenerator.yule(lam, j), t, z, tol)
    assert abs(got - yule_flow(lam, j, t, z)) <= 10 * tol


# -- coefficient recursion ----------------------------------------------------


def test_flow_coefficients_linear_exact():
    f = flow_coefficients(ConstGen(), 0.8, 12)
    expect = np.zeros(13, dtype=complex)
    expect[1] = np.exp(-0.8)
    assert np.max(np.abs(f.coeffs - expect)) == 0.0


def test_flow_coefficients_identity_at_zero_time():
    f = flow_coefficients(BranchingGenerator.yule(1.0, 3), 0.0, 10)
    assert np.allclose(f.coeffs, TruncatedSeries.identity(10).coeffs, atol=0)


def test_flow_coefficients_match_yule_taylor():
    for k in (2, 3):
        f = flow_coefficients(BranchingGenerator.yule(1.0, k), 0.5, 16)
        assert np.max(np.abs(f.coeffs - yule_taylor(1.0, k, 0.5, 16))) < 1e-10


def test_flow_coefficients_need_nonzero_beta():
    with pytest.raises(DomainError):
        flow_coefficients(HerglotzGenerator(), 1.0, 8)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_flow_coefficients_reject_non_finite_time(t):
    with pytest.raises(DomainError, match="finite"):
        flow_coefficients(HerglotzGenerator(0.3, [(0.5, 0.2)]), t, 4)


@pytest.mark.parametrize(
    "gen",
    [HerglotzGenerator(0.3, [(0.5, 0.2), (2.0, 0.5), (4.0, 0.3)]), BranchingGenerator.yule(1.0, 3)],
    ids=["herglotz", "yule"],
)
@pytest.mark.parametrize("n, radius", [(32, 0.7), (64, 0.8)])
def test_flow_coefficients_match_cauchy_fft_of_evolve(gen, n, radius):
    # A third route: the trapezoidal Cauchy integral of K_t on |z| = r,
    # taken by an FFT of batched ODE values at N = 2n nodes.  Coefficient k
    # comes back as r^(-k) times (the aliased sum over m = k mod N of
    # f_m r^m, plus the mean ODE error); with |f_m| <= 1 and the ODE within
    # 100x its local tolerance, the error is below
    # r^(-k) (100 tol + r^(k+N) / (1 - r^N)) (Bornemann, Found. Comput.
    # Math. 11, 2011), on top of the recursion's 1e-12.
    t, tol, nodes = 0.5, 1e-12, 2 * n
    ring = ring_grid((radius,), nodes)
    k = np.arange(1, n + 1)
    fft = (np.fft.fft(evolve(gen, [t], ring, tol)[0]) / nodes)[1 : n + 1] / radius**k
    bound = (100 * tol + radius ** (k + nodes) / (1 - radius**nodes)) / radius**k + 1e-12
    assert np.all(np.abs(fft - flow_coefficients(gen, t, n).coeffs[1:]) <= bound)


yule_generators = st.builds(BranchingGenerator.yule, st.floats(0.2, 2.0), st.sampled_from([2, 3, 4]))
flow_generators = herglotz_generators | yule_generators


@settings(max_examples=40, deadline=None)
@given(gen=flow_generators, t=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0), n=st.integers(1, 48))
def test_flow_coefficients_match_recursion_oracle(gen, t, n):
    # K_t maps the disk into itself, so every coefficient has modulus <= 1
    got = flow_coefficients(gen, t, n)
    want = recursion_flow_coefficients(gen, t, n)
    assert got.order == want.order == n
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(gen=flow_generators, s=st.floats(0.05, 1.0), t=st.floats(0.05, 1.0))
def test_series_semigroup_law_matches_evolve(gen, s, t):
    n, radius, tol = 32, 0.5, 1e-10
    composed = flow_coefficients(gen, s, n).compose(flow_coefficients(gen, t, n))
    assert np.max(np.abs(composed.coeffs - flow_coefficients(gen, s + t, n).coeffs)) <= 1e-12
    ring = ring_grid((radius,), 16)
    ode = evolve(gen, [s + t], ring, tol)[0]
    # coefficients of a disk self-map are <= 1: the dropped tail is below
    # r^(n+1) / (1 - r); the ODE side is within 100x its local tolerance
    tail = radius ** (n + 1) / (1 - radius)
    assert max(abs(composed(z) - k) for z, k in zip(ring, ode)) <= tail + 100 * tol


# -- semigroup property -------------------------------------------------------


def test_defect_vanishing_time():
    tol = 1e-10
    grid = [0.3, 0.5j, -0.2 + 0.4j]
    assert semigroup_defect(ConstGen(), 0.0, 0.9, grid) <= tol


def test_defect_linear_flow():
    tol = 1e-10
    grid = ring_grid((0.3, 0.6), 4)
    assert semigroup_defect(ConstGen(), 0.4, 1.1, grid) <= 10 * tol


def test_defect_yule():
    tol = 1e-10
    grid = ring_grid((0.3, 0.6), 4)
    assert semigroup_defect(BranchingGenerator.yule(1.0, 2), 0.3, 0.3, grid) <= 100 * tol


# -- first moment -------------------------------------------------------------


def test_first_moment_at_zero_time():
    c, p = first_moment_law(ConstGen(), 0.0)
    assert abs(c - 1) < 1e-12 and p == 1


def test_first_moment_linear():
    c, p = first_moment_law(ConstGen(), 1.0)
    assert p == np.exp(-1)
    assert abs(c - p) <= 1e-8


def test_first_moment_yule():
    c, p = first_moment_law(BranchingGenerator.yule(1.0, 2), 0.7)
    assert abs(p - np.exp(-0.7)) < 1e-15
    assert abs(c - p) <= 1e-8


def test_first_moment_zero_beta():
    # identity flow: m_1 stays 1 and the prediction is e^0
    c, p = first_moment_law(HerglotzGenerator(), 2.0)
    assert p == 1
    assert abs(c - 1) <= 1e-10


# -- flow structure -----------------------------------------------------------


def test_denjoy_wolff_decay():
    for gen in (BranchingGenerator.yule(1.0, 2), HerglotzGenerator.uniform()):
        for z in 0.9 * np.exp(2j * np.pi * np.arange(6) / 6):
            assert abs(evolve_pointwise(gen, 10.0, z, 1e-10)) < 0.05


def test_functional_equation_pointwise():
    # v(K_t(z)) = v(z) K_t'(z), with K_t' from the coefficient series
    rng = np.random.default_rng(43)
    gens = [BranchingGenerator.yule(1.0, 2), rand_herglotz(rng)]
    for gen in gens:
        for t in (0.3, 0.9):
            f = flow_coefficients(gen, t, 32)
            fp = f.derivative()
            for z in ring_grid((0.15, 0.3), 5):
                lhs = gen.vector_field_at(f(z))
                rhs = gen.vector_field_at(z) * fp(z)
                assert abs(lhs - rhs) < 1e-7


def test_trajectory_snapshots():
    gen = BranchingGenerator.yule(1.0, 2)
    grid = np.array([0.2, 0.4j, -0.3])
    times = [0.0, 0.5, 1.0]
    values = evolve(gen, times, grid, tol=1e-10)
    assert np.array_equal(values[0], grid)  # identity at t = 0, exactly
    for t in times:
        rep = validate_k(KTransform(flow_coefficients(gen, t, 32)))
        assert rep.all_ok
    # snapshots agree with the coefficient route where both apply
    f = flow_coefficients(gen, 0.5, 32)
    for z, got in zip(grid, values[1]):
        assert abs(got - f(z)) < 1e-8


def test_moment_sequences_along_flow_are_psd():
    gen = BranchingGenerator.yule(1.0, 2)
    for t in (0.2, 0.7, 1.5):
        rep = validate_k(k_transform_from_flow(gen, t))
        assert rep.toeplitz_psd_ok


def k_transform_from_flow(gen, t):
    from monoconv.measure import KTransform

    return KTransform(flow_coefficients(gen, t, 32))
