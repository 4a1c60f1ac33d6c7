from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import horner_compose, power_table, reciprocal_forward

from monoconv.errors import DomainError
from monoconv.series import TruncatedSeries, horner


def rand_series(rng, order):
    c = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
    return TruncatedSeries(c)


def test_compose_monomials():
    f = TruncatedSeries.monomial(2, 8)
    g = f.compose(f)
    expect = np.zeros(9)
    expect[4] = 1.0
    assert np.allclose(g.coeffs, expect, atol=0)


def test_compose_identity_is_neutral():
    rng = np.random.default_rng(0)
    f = rand_series(rng, 10)
    z = TruncatedSeries.identity(10)
    assert f.compose(z).isclose(f, 1e-15)


def test_compose_linear():
    c, d = 0.3 + 0.1j, -0.7 + 0.2j
    f = c * TruncatedSeries.identity(6)
    g = d * TruncatedSeries.identity(6)
    h = f.compose(g)
    assert abs(h[1] - c * d) < 1e-15
    assert np.allclose(np.delete(h.coeffs, 1), 0, atol=0)


def test_compose_requires_zero_constant():
    f = TruncatedSeries([1.0, 1.0])
    with pytest.raises(DomainError):
        f.compose(TruncatedSeries([0.5, 1.0]))


def disk_coeffs(rng, size, radius, density):
    """``size`` coefficients uniform in |c| <= radius, each kept with probability ``density``."""
    c = radius * np.sqrt(rng.uniform(0, 1, size)) * np.exp(2j * np.pi * rng.uniform(0, 1, size))
    return np.where(rng.uniform(0, 1, size) < density, c, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    outer_order=st.integers(0, 256),
    inner_order=st.integers(0, 256),
    seed=st.integers(0, 2**32 - 1),
    radius=st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0),
    density=st.sampled_from([1.0, 0.1]) | st.floats(0.0, 1.0),
)
def test_power_table_compose_matches_horner(outer_order, inner_order, seed, radius, density):
    rng = np.random.default_rng(seed)
    f = TruncatedSeries(disk_coeffs(rng, outer_order + 1, 1.0, density))
    g = disk_coeffs(rng, inner_order + 1, radius, density)
    g[0] = 0.0
    g = TruncatedSeries(g)
    got, want = f.compose(g), horner_compose(f, g)
    assert got.order == want.order == min(outer_order, inner_order)
    # relative to the composition of the moduli, which bounds every partial
    # sum of both routes; below the smallest normal number only subnormal
    # rounding is left
    scale = horner_compose(TruncatedSeries(np.abs(f.coeffs)), TruncatedSeries(np.abs(g.coeffs)))
    gap = np.abs(got.coeffs - want.coeffs)
    assert np.all(gap <= 1e-12 * scale.coeffs.real + np.finfo(float).tiny)


def _moduli_composition(f, g):
    """|f| o |g| by Horner: bounds every partial sum of any composition route."""
    return horner_compose(TruncatedSeries(np.abs(f.coeffs)), TruncatedSeries(np.abs(g.coeffs))).coeffs.real


# every order up to 40, and n + 1 = 255..258 around the perfect square 16^2,
# where the block size ceil(sqrt(n + 1)) steps from 16 to 17
@pytest.mark.parametrize("order", [*range(41), 254, 255, 256, 257])
def test_compose_matches_the_power_table(order):
    rng = np.random.default_rng(order)
    f = rand_series(rng, order)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    for trailing_zeros in (0, (order + 1) // 3):
        c = rand_series(rng, order).coeffs.copy()
        c[0] = 0.0
        c[order + 1 - trailing_zeros :] = 0.0
        g = TruncatedSeries(c)
        got = f.compose(g)
        assert got.order == order
        # each route is within about n eps of the composition of the moduli
        bound = 2 * max(order, 1) * eps * _moduli_composition(f, g) + tiny
        assert np.all(np.abs(got.coeffs - f.coeffs @ power_table(g.coeffs)) <= bound)


def _fraction_compose(f, g):
    """f(g) through order len(f) - 1 in exact rational arithmetic, by Horner."""
    n = len(f) - 1
    acc = [Fraction(0)] * (n + 1)
    for ck in f[::-1]:
        nxt = [Fraction(0)] * (n + 1)
        nxt[0] = ck
        for i, a in enumerate(acc):
            for j in range(1, n + 1 - i):
                nxt[i + j] += a * g[j]
        acc = nxt
    return acc


def test_compose_matches_exact_rational_composition():
    n = 48
    rng = np.random.default_rng(48)
    f, g = rng.uniform(-1, 1, n + 1), rng.uniform(-1, 1, n + 1)
    g[0] = 0.0
    # every float is a dyadic rational, so Fraction(x) is exact
    exact = _fraction_compose([Fraction(x) for x in f], [Fraction(x) for x in g])
    f, g = TruncatedSeries(f), TruncatedSeries(g)
    got = f.compose(g).coeffs
    # the error of got, rounded once more by float(); the imaginary parts stay 0
    gap = np.array([float(Fraction(x) - e) for x, e in zip(got.real, exact)])
    assert np.all(got.imag == 0)
    assert np.all(np.abs(gap) <= n * np.finfo(float).eps * _moduli_composition(f, g))


def test_compose_at_order_zero_keeps_the_constant():
    assert TruncatedSeries([0.5, 2.0]).compose(TruncatedSeries([0.0])).coeffs.tolist() == [0.5]


def test_reciprocal_geometric():
    r = TruncatedSeries([1.0, 1.0, 0.0, 0.0]).reciprocal()
    assert np.allclose(r.coeffs, [1, -1, 1, -1], atol=1e-15)


def test_reciprocal_zero_constant_raises():
    with pytest.raises(DomainError):
        TruncatedSeries([0.0, 1.0]).reciprocal()


def test_derivative():
    d = TruncatedSeries.monomial(2, 5).derivative()
    assert d.order == 4
    assert np.allclose(d.coeffs, [0, 2, 0, 0, 0], atol=0)


def test_mul():
    z = TruncatedSeries.identity(4)
    assert np.allclose((z * z).coeffs, [0, 0, 1, 0, 0], atol=0)


def test_eval_monomial_and_zero():
    assert TruncatedSeries.monomial(2, 4)(0.5) == 0.25
    assert TruncatedSeries.zero(4)(0.3 + 0.1j) == 0


def test_eval_geometric_tail():
    # psi of the point mass at angle 0: every coefficient 1 beyond the constant
    c = np.ones(41)
    c[0] = 0.0
    psi = TruncatedSeries(c)
    z = 0.5
    assert abs(psi(z) - z / (1 - z)) < 1e-11


def test_coefficient_access_beyond_order_raises():
    f = TruncatedSeries([1.0, 2.0])
    with pytest.raises(IndexError):
        f[2]


def test_mixed_order_truncates_to_smaller():
    f = TruncatedSeries(np.arange(9, dtype=float))
    g = TruncatedSeries(np.ones(4))
    assert (f + g).order == 3
    assert (f * g).order == 3
    assert f.compose(TruncatedSeries([0, 1, 0.5])).order == 2


def test_compose_associative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        order = int(rng.integers(3, 13))
        f = rand_series(rng, order)
        g = rand_series(rng, order)
        h = rand_series(rng, order)
        g = g - g[0]
        h = h - h[0]
        lhs = f.compose(g).compose(h)
        rhs = f.compose(g.compose(h))
        scale = max(1.0, float(np.max(np.abs(lhs.coeffs))))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12 * scale


def test_chain_rule():
    rng = np.random.default_rng(11)
    for _ in range(20):
        order = int(rng.integers(3, 13))
        f = rand_series(rng, order)
        g = rand_series(rng, order)
        g = g - g[0]
        lhs = f.compose(g).derivative()
        rhs = f.derivative().compose(g) * g.derivative()
        n = min(lhs.order, rhs.order)
        scale = max(1.0, float(np.max(np.abs(lhs.coeffs[: n + 1]))))
        assert np.max(np.abs(lhs.coeffs[: n + 1] - rhs.coeffs[: n + 1])) <= 1e-12 * scale


def test_reciprocal_inverts():
    rng = np.random.default_rng(13)
    for _ in range(20):
        f = rand_series(rng, int(rng.integers(2, 12)))
        f = f - f[0] + 1.0  # unit constant term keeps the inversion conditioned
        recip = f.reciprocal()
        prod = f * recip
        expect = np.zeros(prod.order + 1)
        expect[0] = 1.0
        scale = max(1.0, float(np.max(np.abs(recip.coeffs))))
        assert np.max(np.abs(prod.coeffs - expect)) < 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    # every order up to 40, and the seams where the last Newton step of
    # 2^j + 1 coefficients switches from a full step to a one-coefficient one
    order=st.integers(0, 40) | st.sampled_from([63, 64, 65, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025]),
    seed=st.integers(0, 2**32 - 1),
    modulus=st.floats(0.5, 2.0),
    phase=st.floats(0.0, 2 * np.pi),
    density=st.sampled_from([1.0, 0.1]) | st.floats(0.0, 1.0),
)
def test_reciprocal_matches_forward_substitution(order, seed, modulus, phase, density):
    rng = np.random.default_rng(seed)
    a = disk_coeffs(rng, order + 1, 1.0, density)
    a[0] = modulus * np.exp(1j * phase)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reciprocal_forward(a)
        # a_0 b is the reciprocal of a / a_0, the forward recurrence's response
        # to one rounding error: its size amplifies the errors of both routes
        response = np.max(np.abs(a[0] * want))
    assume(np.isfinite(response))  # a root near 1/3 overflows b by order 650
    got = TruncatedSeries(a).reciprocal().coeffs
    gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert gap <= max(order, 1) * np.finfo(float).eps * response


def test_reciprocal_matches_exact_rational_reciprocal():
    n = 48
    a = np.random.default_rng(48).uniform(-1, 1, n + 1)
    # every float is a dyadic rational, so Fraction(x) is exact
    exact = reciprocal_forward([Fraction(x) for x in a], object)
    got = TruncatedSeries(a).reciprocal().coeffs
    gap = np.array([float(Fraction(x) - e) for x, e in zip(got.real, exact)])
    assert np.all(got.imag == 0)
    assert np.all(np.abs(gap) <= n * np.finfo(float).eps * max(abs(float(e)) for e in exact))


def test_immutability():
    f = TruncatedSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(deadline=None)
@given(
    coeffs=st.lists(st.builds(complex, _unit, _unit), min_size=1, max_size=41),
    points=st.lists(st.builds(complex, _unit, _unit), min_size=1, max_size=20),
)
def test_horner_arrays_scalars_and_polyval_agree(coeffs, points):
    c, z = np.array(coeffs), np.array(points)
    # sum_k |c_k| |z|^k, the scale of the rounding error of any evaluation order
    scale = np.abs(c) @ (np.abs(z)[None, :] ** np.arange(c.size)[:, None])
    on_array = horner(c, z)
    on_scalars = np.array([horner(c, zi) for zi in points])
    polyval = np.polynomial.polynomial.polyval
    assert on_array.shape == z.shape
    assert np.all(np.abs(on_array - polyval(z, c)) <= 1e-15 * scale)
    assert np.all(np.abs(on_scalars - [polyval(zi, c) for zi in points]) <= 1e-15 * scale)
    # an array and a scalar may round differently (fused multiply-adds in
    # numpy's vectorised complex multiply); the a-priori Horner bound for
    # complex arithmetic, twice over, covers the gap
    eps = np.finfo(float).eps
    assert np.all(np.abs(on_array - on_scalars) <= 4 * c.size * eps * scale)


def test_series_call_is_horner():
    f = TruncatedSeries([0.5, -1j, 0.25 + 0.5j])
    z = np.array([0.3 + 0.1j, -0.6j])
    assert np.array_equal(f(z), horner(f.coeffs, z))
    assert f(0.3 + 0.1j) == horner(f.coeffs, 0.3 + 0.1j)
