from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import merge_and_drop

from monoconv.cfree import (
    CFreeEvaluator,
    MomentFunctional,
    Word,
    canonical_words,
    cfree_eval,
    monotone_eval,
    monotone_specialization_defect,
)
from monoconv.convolution import monotone_convolve
from monoconv.errors import DomainError
from monoconv.measure import CircleMeasure
from monoconv.opmodel import diagonal_unitary_model, monotone_product, operator_moments


def frac_moments(rng, n):
    return MomentFunctional(
        [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7))) for _ in range(n)]
    )


# -- words ---------------------------------------------------------------------


def test_canonicalization_merges_and_drops():
    w = Word(((1, 2), (1, 1), (2, 0), (1, 3), (2, 2)))
    assert w.letters == ((1, 6), (2, 2))
    assert w.canonical() is w


def test_words_equal_as_algebra_elements_compare_equal():
    assert Word(((1, 1), (1, 1))) == Word(((1, 2),))
    assert Word(((2, 0),)) == Word(()) and len(Word(((2, 0),))) == 0
    assert hash(Word(((2, 1), (1, 0), (2, 3)))) == hash(Word(((2, 4),)))


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, 2)), st.integers(0, 4)), max_size=12))
def test_word_construction_matches_merge_and_drop_oracle(letters):
    w = Word(letters)
    assert w.letters == merge_and_drop(letters)
    assert Word(w.letters) == w


@pytest.mark.parametrize("letters", [((3, 1),), ((0, 1),), ((1, -1),), ((1, 2), (2, -1))])
def test_word_rejects_bad_letters(letters):
    with pytest.raises(ValueError):
        Word(letters)


def test_power_zero_letters_are_transparent():
    rng = np.random.default_rng(1)
    phi1 = frac_moments(rng, 20)
    phi2 = frac_moments(rng, 20)
    base = Word(((1, 2), (2, 1), (1, 1)))
    padded = Word(((2, 0), (1, 2), (1, 0), (2, 1), (2, 0), (1, 1)))
    assert monotone_eval(base, phi1, phi2) == monotone_eval(padded, phi1, phi2)
    ev = CFreeEvaluator(phi1, phi1, phi2, phi2)
    assert ev.eval(base) == ev.eval(padded)


# -- monotone functional --------------------------------------------------------


def test_monotone_single_right_letter():
    phi1 = MomentFunctional([2, 3])
    phi2 = MomentFunctional([5, 7, 11])
    assert monotone_eval(Word(((2, 3),)), phi1, phi2) == 11


def test_monotone_right_left_right():
    phi1 = MomentFunctional([2, 3])
    phi2 = MomentFunctional([5, 7])
    # phi(b a b) = phi1(a) phi2(b) phi2(b)
    assert monotone_eval(Word(((2, 1), (1, 1), (2, 1))), phi1, phi2) == 2 * 5 * 5


def test_monotone_left_right_left():
    phi1 = MomentFunctional([2, 3])
    phi2 = MomentFunctional([5, 7])
    # phi(a b a) = phi1(a^2) phi2(b)
    assert monotone_eval(Word(((1, 1), (2, 1), (1, 1))), phi1, phi2) == 3 * 5


# -- two-state functional ---------------------------------------------------------


def test_single_letter_is_phi():
    phi1 = MomentFunctional([2, 3, 5])
    phi2 = MomentFunctional([7, 11, 13])
    psi = MomentFunctional.delta()
    assert cfree_eval(Word(((1, 3),)), phi1, psi, phi2, psi) == 5
    assert cfree_eval(Word(((2, 2),)), phi1, psi, phi2, psi) == 11


def test_boolean_specialization_factorizes():
    phi1 = MomentFunctional([2, 3])
    phi2 = MomentFunctional([5, 7])
    delta = MomentFunctional.delta()
    word = Word(((1, 1), (2, 1), (1, 1)))
    assert cfree_eval(word, phi1, delta, phi2, delta) == 2 * 5 * 2


def test_monotone_specialization_small_words():
    phi1 = MomentFunctional([2, 3, 5, 7])
    phi2 = MomentFunctional([11, 13, 17, 19])
    ev = CFreeEvaluator(phi1, MomentFunctional.delta(), phi2, phi2)
    for word in canonical_words(4, 2):
        assert ev.eval(word) == monotone_eval(word, phi1, phi2)


def test_monotone_specialization_rational_sweep():
    rng = np.random.default_rng(3)
    phi1 = frac_moments(rng, 30)
    phi2 = frac_moments(rng, 30)
    defect, count = monotone_specialization_defect(phi1, phi2, max_len=5, max_power=3)
    assert defect == 0
    assert count == sum(2 * 3**L for L in range(1, 6))


def test_monotone_specialization_in_floats():
    # float moments take the same recursion and agree to rounding
    rng = np.random.default_rng(5)
    phi1 = MomentFunctional(list(rng.uniform(-1, 1, 16)))
    phi2 = MomentFunctional(list(rng.uniform(-1, 1, 16)))
    ev = CFreeEvaluator(phi1, MomentFunctional.delta(), phi2, phi2)
    for word in canonical_words(5, 3):
        expect = monotone_eval(word, phi1, phi2)
        assert abs(ev.eval(word) - expect) <= 1e-12 * (1 + abs(expect))


def test_free_specialization_swap_symmetry():
    rng = np.random.default_rng(4)
    phi1 = frac_moments(rng, 40)
    phi2 = frac_moments(rng, 40)
    ev12 = CFreeEvaluator(phi1, phi1, phi2, phi2)
    ev21 = CFreeEvaluator(phi2, phi2, phi1, phi1)
    for word in list(canonical_words(4, 2)):
        assert ev12.eval(word) == ev21.eval(word.swapped())


def test_moment_order_exhaustion_raises():
    phi = MomentFunctional([1])
    with pytest.raises(DomainError):
        monotone_eval(Word(((1, 2),)), phi, phi)


def test_word_length_cap():
    phi = MomentFunctional([1] * 40)
    long_word = Word(tuple((1 + i % 2, 1) for i in range(17)))
    with pytest.raises(DomainError):
        cfree_eval(long_word, phi, phi, phi, phi)


# -- bridge to measures and operators ----------------------------------------------


def test_word_expansion_reproduces_convolution_moments():
    # Phi((U V)^k) expanded through U = 1 + u, evaluated monotonically,
    # must match both the operator model and the convolution moments.
    rng = np.random.default_rng(8)
    angles1, w1 = rng.uniform(0, 2 * np.pi, 3), rng.dirichlet(np.ones(3))
    angles2, w2 = rng.uniform(0, 2 * np.pi, 2), rng.dirichlet(np.ones(2))
    mu = CircleMeasure.from_atoms(angles1, w1)
    nu = CircleMeasure.from_atoms(angles2, w2)
    kmax = 6

    m_mu = np.concatenate(([1.0 + 0j], mu.moments(kmax)))
    u_moments = [
        sum(comb(j, i) * ((-1.0 + 0j) ** (j - i)) * m_mu[i] for i in range(j + 1))
        for j in range(1, kmax + 1)
    ]
    phi1 = MomentFunctional(u_moments)
    phi2 = MomentFunctional(list(nu.moments(kmax)))

    conv = monotone_convolve(mu, nu, kmax).moments(kmax)

    # independent operator-model values
    m1 = diagonal_unitary_model(angles1, w1, "U")
    from monoconv.opmodel import MatrixModel

    m1 = MatrixModel(m1.dim, m1.state, {**m1.operators, "One": np.eye(m1.dim)})
    m2 = diagonal_unitary_model(angles2, w2, "V")
    prod = monotone_product(m1, m2)
    u_bar = np.eye(prod.dim) + prod.operators["U"] - prod.operators["One"]
    op_moms = operator_moments(u_bar @ prod.operators["V"], prod.state, kmax)

    for k in range(1, kmax + 1):
        total = 0j
        for r in range(k + 1):  # choose which of the k U-slots contribute u
            for positions in combinations(range(k), r):
                letters = []
                for slot in range(k):
                    if slot in positions:
                        letters.append((1, 1))
                    letters.append((2, 1))
                total += monotone_eval(Word(tuple(letters)), phi1, phi2)
        assert abs(total - conv[k - 1]) < 1e-10
        assert abs(total - op_moms[k - 1]) < 1e-10
