import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, inf, isnan, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    CumulantCFree,
    DropKeepCFree,
    NestedTupleCFree,
    StateWalkCFree,
    length_first_words,
    merge_and_drop,
    monotone_by_calls,
)

import monoconv.cfree as cfree
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
from monoconv.opmodel import MatrixModel, diagonal_unitary_model, monotone_product, operator_moments


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


@pytest.mark.parametrize(
    "letters",
    [
        ((3, 1),),
        ((0, 1),),
        ((1, -1),),
        ((1, 2), (2, -1)),
        ((1, 1.5),),
        ((2, 2.9),),
        ((1.7, 1),),
        ((1, 1.5), (2, 2.9), (1.7, 1)),
        ((1, Fraction(3, 2)),),
        ((1, inf),),
        ((1, nan),),
        ((nan, 1),),
    ],
)
def test_word_rejects_bad_letters(letters):
    with pytest.raises(ValueError):
        Word(letters)


def test_word_accepts_integral_letters_of_any_type():
    letters = ((np.int64(1), np.int64(2)), (2.0, Fraction(6, 2)), (np.int32(1), np.float64(1.0)))
    word = Word(letters)
    assert word.letters == ((1, 2), (2, 3), (1, 1))
    assert all(type(x) is int for letter in word.letters for x in letter)


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


_KINDS = {
    "int": lambda rng, n: MomentFunctional([int(v) for v in rng.integers(-9, 10, n)]),
    "fraction": frac_moments,
    "float": lambda rng, n: MomentFunctional(rng.choice([1e200, -1e150, 0.5, 0.0, -3.0], n).tolist()),
    "complex": lambda rng, n: MomentFunctional((rng.normal(size=n) + 1j * rng.normal(size=n)).tolist()),
    "delta": lambda rng, n: MomentFunctional.delta(),
}


@pytest.mark.parametrize("kind2", sorted(_KINDS))
@pytest.mark.parametrize("kind1", sorted(_KINDS))
def test_monotone_eval_equals_one_call_per_factor(kind1, kind2):
    # same values, types, signed zeros and NaNs, from products in the same order
    rng = np.random.default_rng([5, len(kind1), len(kind2)])
    phi1, phi2 = _KINDS[kind1](rng, 12), _KINDS[kind2](rng, 12)
    for word in [Word(())] + list(canonical_words(4, 3)):
        assert repr(monotone_eval(word, phi1, phi2)) == repr(monotone_by_calls(word, phi1, phi2))


@pytest.mark.parametrize(
    "letters",
    [((1, 3),), ((2, 2),), ((1, 3), (2, 2)), ((2, 2), (1, 3)), ((2, 1), (1, 1), (2, 2), (1, 2))],
)
def test_monotone_eval_raises_as_one_call_per_factor(letters):
    phi1, phi2 = MomentFunctional([1, 2]), MomentFunctional([3])
    word = Word(letters)
    with pytest.raises(DomainError) as expected:
        monotone_by_calls(word, phi1, phi2)
    with pytest.raises(DomainError, match=f"^{re.escape(str(expected.value))}$"):
        monotone_eval(word, phi1, phi2)


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


def moment_arithmetic_sweep(phi1, phi2, max_len, max_power):
    """The sweep's max defect in the moments' own arithmetic, with no rescaling."""
    evaluator = CFreeEvaluator(phi1, MomentFunctional.delta(), phi2, phi2)
    return max(
        abs(evaluator.eval(word) - cfree.monotone_eval(word, phi1, phi2))
        for word in canonical_words(max_len, max_power)
    )


@settings(max_examples=40, deadline=None)
@given(
    moments=st.lists(st.fractions(-3, 3, max_denominator=12), min_size=24, max_size=24),
    max_len=st.integers(1, 4),
    max_power=st.integers(1, 3),
    broken_orders=st.sets(st.integers(1, 12), max_size=3),
    scale=st.integers(-2, 2),
)
def test_rescaled_sweep_defect_is_the_exact_fraction_defect(moments, max_len, max_power, broken_orders, scale):
    # an error of weight N on words of total power N stays homogeneous, so
    # the integer sweep must recover the exact rational defect
    phi1, phi2 = MomentFunctional(moments[:12]), MomentFunctional(moments[12:])
    monotone = cfree.monotone_eval

    def broken(word, a, b):
        order = sum(p for _, p in word.letters)
        error = scale * a(order - 1) * b(1) if order in broken_orders else 0
        return monotone(word, a, b) + error

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cfree, "monotone_eval", broken)
        expect = moment_arithmetic_sweep(phi1, phi2, max_len, max_power)
        got, count = monotone_specialization_defect(phi1, phi2, max_len, max_power)
    assert got == expect
    assert expect == 0 or type(got) is Fraction
    assert count == sum(2 * max_power**k for k in range(1, max_len + 1))


def _unit_moments(rng, kind):
    re_part, im_part = rng.uniform(-1, 1, (2, 16))
    return MomentFunctional([complex(a, b) if kind is complex else kind(a) for a, b in zip(re_part, im_part)])


@pytest.mark.parametrize("kinds", [(float, float), (complex, complex), (Fraction, float)])
def test_inexact_sweeps_run_unscaled(monkeypatch, kinds):
    rng = np.random.default_rng(5)
    phi1, phi2 = (_unit_moments(rng, kind) for kind in kinds)
    monotone = cfree.monotone_eval
    seen = []

    def recording(word, a, b):
        seen.append((a, b))
        return monotone(word, a, b)

    monkeypatch.setattr(cfree, "monotone_eval", recording)
    defect, count = monotone_specialization_defect(phi1, phi2, max_len=5, max_power=3)
    assert len(seen) == count and all(a is phi1 and b is phi2 for a, b in seen)
    assert defect <= 1e-12  # test_monotone_specialization_in_floats' bound for |value| <= 1


def test_short_moment_list_raises_the_unscaled_error():
    rng = np.random.default_rng(6)
    phi1, phi2 = frac_moments(rng, 3), frac_moments(rng, 5)
    with pytest.raises(DomainError, match="moment of order 4 required but only 3 stored") as unscaled:
        moment_arithmetic_sweep(phi1, phi2, 3, 2)
    with pytest.raises(DomainError, match=f"^{re.escape(str(unscaled.value))}$"):
        monotone_specialization_defect(phi1, phi2, 3, 2)


def test_integer_moments_sweep_unscaled(monkeypatch):
    # criterion 09's moments: every denominator is 1, so s = 1
    rng = np.random.default_rng(9)
    phi1 = MomentFunctional([int(rng.integers(-5, 6)) for _ in range(32)])
    phi2 = MomentFunctional([int(rng.integers(-5, 6)) for _ in range(32)])
    monotone = cfree.monotone_eval
    seen = set()

    def recording(word, a, b):
        seen.add((a.moments, b.moments))
        return monotone(word, a, b)

    monkeypatch.setattr(cfree, "monotone_eval", recording)
    assert monotone_specialization_defect(phi1, phi2, max_len=4, max_power=3) == (0, 240)
    assert seen == {(phi1.moments[:12], phi2.moments[:12])}  # 12 = 4 * 3, the highest order asked


def test_a_nan_gap_makes_the_float_sweep_defect_nan():
    # moments from {+-1e200, 1e150, 1, 0.5, 0}: on y x y^2 the monotone side is
    # phi1(1) phi2(1) phi2(2) = (1e150 * -1e200) * 0.0 = nan, the two-state side 0.0
    phi1 = MomentFunctional([1e150, 1.0, 1.0, 0.5, 1.0, 0.0, -1e200, 1e150])
    phi2 = MomentFunctional([-1e200, 0.0, 1e200, 0.5, 0.0, -1e200, -1e200, 0.5])
    word = Word(((2, 1), (1, 1), (2, 2)))
    assert CFreeEvaluator(phi1, MomentFunctional.delta(), phi2, phi2).eval(word) == 0.0
    assert isnan(monotone_eval(word, phi1, phi2))
    defect, count = monotone_specialization_defect(phi1, phi2, max_len=4, max_power=2)
    assert isnan(defect) and count == 60


@pytest.mark.parametrize(
    "offsets, expected",
    [([0.5, nan, 2.0, 3.0], nan), ([0.5, 2.0, 3.0, nan], nan), ([0.5, 2.0, 0.25, 0.0], 2.0)],
)
def test_a_nan_gap_stays_the_defect_for_the_rest_of_the_sweep(monkeypatch, offsets, expected):
    # the 4 words of length <= 2 and power 1, with the monotone side moved by a set gap each
    phi = MomentFunctional([0.5, 0.25])
    monotone = cfree.monotone_eval
    gaps = iter(offsets)
    monkeypatch.setattr(cfree, "monotone_eval", lambda word, a, b: monotone(word, a, b) + next(gaps))
    defect, count = monotone_specialization_defect(phi, phi, max_len=2, max_power=1)
    assert count == 4
    assert isnan(defect) if isnan(expected) else defect == expected


def test_delta_moments_sweep_as_delta():
    # delta stores no moments but vanishes at every order, rescaled or not
    phi2 = frac_moments(np.random.default_rng(7), 6)
    assert monotone_specialization_defect(MomentFunctional.delta(), phi2, max_len=3, max_power=2) == (0, 28)


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


def test_single_letter_words_keep_no_polynomials():
    # interning x^p would keep a (p + 1)-tuple alive: 16 MB over these powers
    phi = MomentFunctional([Fraction(1, k) for k in range(1, 2001)])
    evaluator = CFreeEvaluator(phi, phi, phi, phi)
    tracemalloc.start()
    try:
        values = [evaluator.eval(Word(((2, p),))) for p in range(1, 2001)]
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values == [Fraction(1, p) for p in range(1, 2001)]
    assert kept < 1_000_000


class RecordingFunctional(MomentFunctional):
    """A moment functional that records every order it is asked for."""

    def __init__(self, moments):
        super().__init__(moments)
        self.asked = []

    def __call__(self, k):
        self.asked.append(k)
        return super().__call__(k)


def test_sweep_rejects_length_above_cap_before_evaluating():
    phi = RecordingFunctional([1] * 40)
    with pytest.raises(DomainError, match="word length 17 exceeds the expansion cap 16"):
        monotone_specialization_defect(phi, phi, max_len=17, max_power=1)
    assert phi.asked == []


@pytest.mark.parametrize(
    "max_len, max_power, message",
    [
        (16, 9, "sweep of 4169295424916640 words exceeds the cap 1000000"),
        (1, 10**9, "sweep of 2000000000 words exceeds the cap 1000000"),
    ],
)
def test_sweep_rejects_word_count_above_cap_before_evaluating(max_len, max_power, message):
    phi = RecordingFunctional([1] * 40)
    with pytest.raises(DomainError, match=message):
        monotone_specialization_defect(phi, phi, max_len=max_len, max_power=max_power)
    assert phi.asked == []


def test_sweep_caps_admit_criterion_09_and_reject_just_above():
    cfree._check_sweep_bounds(8, 4)  # criterion 09: 174,760 words
    cfree._check_sweep_bounds(8, 5)  # 976,560 words
    cfree._check_sweep_bounds(1, 256)
    with pytest.raises(DomainError, match="sweep of 4882810 words exceeds the cap 1000000"):
        cfree._check_sweep_bounds(9, 5)
    with pytest.raises(DomainError, match="sweep words of total power up to 257 exceed the cap 256"):
        cfree._check_sweep_bounds(1, 257)


@pytest.mark.parametrize(
    "moments",
    [[nan, 1.0, 1.0], [inf, 1.0, 1.0], [1.0, -inf], [complex(inf, 0.0)], [0.5, complex(0.0, nan)], [np.float64(nan)]],
)
def test_non_finite_moments_rejected(moments):
    with pytest.raises(ValueError, match="finite"):
        MomentFunctional(moments)


@pytest.mark.parametrize("functional", [MomentFunctional([1, 2, 3]), MomentFunctional.delta()])
@pytest.mark.parametrize("k", [-1, -2, -3])
def test_negative_moment_order_rejected(functional, k):
    with pytest.raises(ValueError, match="moment order must be >= 0"):
        functional(k)


def test_length_cap_zero_admits_only_the_empty_word(monkeypatch):
    monkeypatch.setattr(cfree, "_MAX_WORD_LEN", 0)
    phi = MomentFunctional([1, 2])
    evaluator = CFreeEvaluator(phi, phi, phi, phi)
    assert evaluator.eval(Word(())) == 1
    with pytest.raises(DomainError, match="word length 1 exceeds the expansion cap 0"):
        evaluator.eval(Word(((1, 1),)))


def test_large_rational_moments_accepted():
    # exact moments are never converted to float, which would overflow
    huge = Fraction(10**400, 3)
    phi = MomentFunctional([huge, 10**400])
    assert phi(1) == huge and phi(2) == 10**400


# -- interned evaluator against the nested-tuple recursion ------------------------


@st.composite
def canonical_word(draw, max_len=8, max_power=4):
    start = draw(st.sampled_from((1, 2)))
    powers = draw(st.lists(st.integers(1, max_power), min_size=1, max_size=max_len))
    return Word(tuple((start if i % 2 == 0 else 3 - start, p) for i, p in enumerate(powers)))


_unit_floats = st.floats(-1.0, 1.0)
_moments_of_kind = {
    "int": st.integers(-3, 3),
    "fraction": st.fractions(-3, 3, max_denominator=6),
    "float": _unit_floats,
    "complex": st.builds(complex, _unit_floats, _unit_floats),
}


@st.composite
def cfree_functionals(draw, min_moments=16, max_moments=16):
    """phi1, psi1, phi2, psi2 with moments of one kind, exact zeros among them.

    Each psi is delta, an independent functional or its own phi, so both
    zero shortcuts of the recursion (a zero drop or keep term, a zero phi
    factor) are reached.
    """
    # 16 moments cover an alternating word of length 8 and power 4
    kind = _moments_of_kind[draw(st.sampled_from(sorted(_moments_of_kind)))]
    moments = kind | kind.map(lambda m: 0 * m)  # a zero of the same type

    def functional():
        return MomentFunctional(draw(st.lists(moments, min_size=min_moments, max_size=max_moments)))

    def psi(phi):
        choice = draw(st.sampled_from(("delta", "independent", "phi")))
        if choice == "delta":
            return MomentFunctional.delta()
        return functional() if choice == "independent" else phi

    phi1, phi2 = functional(), functional()
    return phi1, psi(phi1), phi2, psi(phi2)


@settings(max_examples=60, deadline=None)
@given(functionals=cfree_functionals(), words=st.lists(canonical_word(), min_size=1, max_size=6))
def test_interned_evaluator_matches_nested_tuple_oracle(functionals, words):
    evaluator = CFreeEvaluator(*functionals)  # one memo across the batch
    oracle = NestedTupleCFree(*functionals)
    for word in words:
        got = evaluator.eval(word)
        expect = oracle.eval(word)
        assert got == expect
        assert type(got) is type(expect)


def _outcome(evaluate, word):
    try:
        return "value", evaluate(word)
    except DomainError as exc:
        return "error", str(exc)


@settings(max_examples=60, deadline=None)
@given(functionals=cfree_functionals(min_moments=0, max_moments=8), word=canonical_word(max_len=5, max_power=3))
def test_short_moment_list_raises_the_oracles_order(functionals, word):
    # a skipped zero term must not hide a missing moment, nor name another order
    got = _outcome(CFreeEvaluator(*functionals).eval, word)
    assert got == _outcome(NestedTupleCFree(*functionals).eval, word)


def test_short_moment_list_error_names_the_merged_order():
    phi = MomentFunctional([1, 2, 3])
    word = Word(((1, 2), (2, 1), (1, 2)))  # the free recursion merges x^2 x^2 = x^4
    with pytest.raises(DomainError, match="moment of order 4 required but only 3 stored"):
        NestedTupleCFree(phi, phi, phi, phi).eval(word)
    with pytest.raises(DomainError, match="moment of order 4 required but only 3 stored"):
        CFreeEvaluator(phi, phi, phi, phi).eval(word)


# -- walk against the drop/keep recursion ------------------------------------------

# moments near 1e200 overflow: a product of two is inf, and a sum of two
# infinite terms of opposite sign is nan
_huge_floats = st.sampled_from([1.0, -1.0]) | st.floats(0.5, 1.0).flatmap(lambda m: st.sampled_from([m * 1e200, -m * 1e200]))
_walk_moment_kinds = {**_moments_of_kind, "huge float": _huge_floats}


@st.composite
def specialized_functionals(draw, kind, min_moments=4):
    """phi1, psi1, phi2, psi2 of one of the four specializations, min_moments to 16 moments of the kind."""
    moments = _walk_moment_kinds[kind]
    moments = moments | moments.map(lambda m: 0 * m)  # a zero of the same type
    phi1, psi1, phi2, psi2 = (
        MomentFunctional(draw(st.lists(moments, min_size=min_moments, max_size=16))) for _ in range(4)
    )
    delta = MomentFunctional.delta()
    return {
        "free": (phi1, phi1, phi2, phi2),
        "boolean": (phi1, delta, phi2, delta),
        "monotone": (phi1, delta, phi2, phi2),
        "independent": (phi1, psi1, phi2, psi2),
    }[draw(st.sampled_from(("free", "boolean", "monotone", "independent")))]


def _same_number(got, expect):
    """got == expect, where nan matches nan in each real and imaginary part."""
    if isinstance(got, complex) and isinstance(expect, complex):
        return _same_number(got.real, expect.real) and _same_number(got.imag, expect.imag)
    return got == expect or (isinstance(got, float) and isinstance(expect, float) and isnan(got) and isnan(expect))


@pytest.mark.parametrize("kind", sorted(_walk_moment_kinds))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), words=st.lists(canonical_word(), min_size=1, max_size=6))
def test_walk_matches_drop_keep_recursion(kind, data, words):
    # same value and type, or the same first DomainError, word after word
    # on one memo per side
    _check_walk_against_recursion(data.draw(specialized_functionals(kind)), words)


def _check_walk_against_recursion(functionals, words):
    walk = CFreeEvaluator(*functionals)
    recursion = DropKeepCFree(*functionals)
    for word in words:
        got = _outcome(walk.eval, word)
        try:
            expect = _outcome(recursion.eval, word)
        except RecursionError:
            # the recursion keeps splitting a centered letter whose psi tail
            # overflowed (see the next test); the walk checks it once
            assert any(abs(m) > 1e100 for functional in functionals for m in functional.moments)
            continue
        assert got[0] == expect[0]
        assert type(got[1]) is type(expect[1])
        assert _same_number(got[1], expect[1])


def test_walk_checks_an_overflowed_centered_letter_once():
    # x y x y drops y to x (x - 1e200), whose psi tail 1e200 - 1e200 * 1e200
    # is -inf: its centered letter has psi value inf - inf = nan and
    # centers to itself
    phi = MomentFunctional([1e200] * 8)
    word = Word(((1, 1), (2, 1), (1, 1), (2, 1)))
    with pytest.raises(RecursionError):
        DropKeepCFree(phi, phi, phi, phi).eval(word)
    assert isnan(CFreeEvaluator(phi, phi, phi, phi).eval(word))


def test_a_zero_factor_stops_an_overflowed_product():
    # boolean: no letter splits, and phi(y^2) phi(x) = 1e200 * 1e200 is inf
    # before the zero factor phi(y); inf * 0 would be nan
    delta = MomentFunctional.delta()
    functionals = (MomentFunctional([1e200]), delta, MomentFunctional([0.0, 1e200]), delta)
    word = Word(((2, 2), (1, 1), (2, 1)))
    assert CFreeEvaluator(*functionals).eval(word) == 0.0
    assert DropKeepCFree(*functionals).eval(word) == 0.0
    assert isnan(NestedTupleCFree(*functionals).eval(word))


def test_a_zero_drop_value_is_not_multiplied_by_an_overflowed_psi_scalar():
    # free: dropping y^2 from x y^2 x y leaves (x^2 - 1e200 x) y, whose first
    # letter has psi value 1e200 - 1e200 * 1e200 = -inf and drop value
    # phi(y) = 0; -inf * 0 would make the word nan
    phi1, phi2 = MomentFunctional([1e200, 1e200]), MomentFunctional([0.0, -1e200, -1e200])
    assert CFreeEvaluator(phi1, phi1, phi2, phi2).eval(Word(((1, 1), (2, 2), (1, 1), (2, 1)))) == -inf


def test_walk_memoizes_no_partly_centered_state():
    # the counts repeat exactly; the drop/keep recursion memoizes 9027 and
    # 537 states on the same input
    phi1 = MomentFunctional([Fraction(k % 5 - 2, k % 3 + 1) for k in range(18)])
    phi2 = MomentFunctional([Fraction(k % 7 - 3, k % 4 + 1) for k in range(18)])
    monotone = CFreeEvaluator(phi1, MomentFunctional.delta(), phi2, phi2)
    for word in canonical_words(6, 3):
        monotone.eval(word)
    assert len(monotone._memo) <= 3132
    free = CFreeEvaluator(phi1, phi1, phi2, phi2)
    assert free.eval(Word(tuple((1 + i % 2, 1 + i % 3) for i in range(10)))) == Fraction(-14527, 162)
    assert len(free._memo) <= 232


# -- prefix records against the walk of every word from its first letter ------------


@st.composite
def word_sequences(draw):
    """Words for one evaluator that share prefixes, or do not, in many orders.

    Runs of a small depth-first sweep, in order, shuffled or reversed;
    repeated words; words whose prefixes are not evaluated before them;
    single letters and the empty word.
    """
    sweep = list(canonical_words(draw(st.integers(2, 4)), draw(st.integers(1, 3))))
    words = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("sweep", "shuffled", "reversed", "repeat", "lone", "letter", "empty")))
        if kind in ("sweep", "shuffled", "reversed"):
            start = draw(st.integers(0, len(sweep) - 1))
            run = sweep[start : start + draw(st.integers(1, 30))]
            if kind == "shuffled":
                run = draw(st.permutations(run))
            words += run[::-1] if kind == "reversed" else run
        elif kind == "repeat":
            words += [draw(st.sampled_from(words or sweep))] * 2
        elif kind == "lone":
            words.append(draw(canonical_word(max_len=6, max_power=3)))
        elif kind == "letter":
            words.append(Word(((draw(st.sampled_from((1, 2))), draw(st.integers(1, 4))),)))
        else:
            words.append(Word(()))
    return words


def _memo_states(evaluator):
    """The memoized states as their letters; repr keeps a nan coefficient equal to itself."""
    return {repr(tuple(evaluator._letters[letter] for letter in state)) for state in evaluator._memo}


def _check_against_state_walk(functionals, words):
    evaluator = CFreeEvaluator(*functionals)
    oracle = StateWalkCFree(*functionals)
    for word in words:
        got = _outcome(evaluator.eval, word)
        expect = _outcome(oracle.eval, word)
        assert got[0] == expect[0]
        assert type(got[1]) is type(expect[1])
        assert _same_number(got[1], expect[1])
    assert _memo_states(evaluator) == _memo_states(oracle)


@pytest.mark.parametrize("kind", sorted(_walk_moment_kinds))
@settings(max_examples=12, deadline=None)
@given(data=st.data(), words=word_sequences())
def test_prefix_records_match_the_walk_from_the_first_letter(kind, data, words):
    # same value and type, or the same first DomainError, word after word,
    # and the same memoized states; short moment lists make words raise
    # and the words after them must not notice
    _check_against_state_walk(data.draw(specialized_functionals(kind, min_moments=0)), words)


_X, _Y = (1, 1), (2, 1)
_ONES = MomentFunctional([1] * 8)
_DELTA = MomentFunctional.delta()


@pytest.mark.parametrize(
    "functionals, words, outcome",
    [
        # psi_1 stores one moment, 0, so x does not split and x^2 cannot: the
        # walk of x y x^2 y x drops y first, to x^3 y x, whose psi_1 value
        # asks for order 3 before the split of x^2 asks for order 2
        (
            (_ONES, MomentFunctional([0]), _ONES, _ONES),
            [Word((_X, _Y, (1, 2), _Y, _X)[:n]) for n in (2, 3, 4, 5, 5, 4)],
            ("error", "moment of order 3 required but only 1 stored"),
        ),
        # x y x^2 drops y to x^3, whose phi_1 value asks for order 3 before
        # the split of x^2 asks psi_1 for order 2
        (
            (MomentFunctional([1]), MomentFunctional([0]), _ONES, _ONES),
            [Word((_X, _Y)), Word((_X, _Y, (1, 2)))],
            ("error", "moment of order 3 required but only 1 stored"),
        ),
        # boolean: phi_2(y) = 0 stops the product of y x, and y x y^2 still
        # asks phi_2 for the order 2 factor of its last letter
        (
            (MomentFunctional([1]), _DELTA, MomentFunctional([0]), _DELTA),
            [Word((_Y, _X)), Word((_Y, _X, (2, 2)))],
            ("error", "moment of order 2 required but only 1 stored"),
        ),
        # phi(y - psi(y)) = 0 stops the product before the factor
        # phi(x - psi(x)) = 1e308 + 1e308 = inf, which must not make it nan
        (
            (MomentFunctional([1e308]), MomentFunctional([-1e308]), MomentFunctional([1.0]), MomentFunctional([1.0])),
            [Word((_Y, _X))],
            ("value", 1e308),
        ),
        # monotone with int phi_1 and Fraction phi_2: the zero drop value of
        # y in x y is not multiplied by its Fraction psi value
        (
            (MomentFunctional([0]), _DELTA, MomentFunctional([Fraction(1, 2)]), MomentFunctional([Fraction(1, 2)])),
            [Word((_X, _Y))],
            ("value", 0),
        ),
    ],
)
def test_an_extension_takes_the_steps_of_a_walk_from_scratch(functionals, words, outcome):
    assert _outcome(CFreeEvaluator(*functionals).eval, words[-1]) == outcome
    assert type(_outcome(CFreeEvaluator(*functionals).eval, words[-1])[1]) is type(outcome[1])
    _check_against_state_walk(functionals, words)


def _same_record(got, expect):
    """Records equal field by field, where nan matches nan in each number."""
    (state, prefix, scalar, drops, product, stopped), want = got, expect
    assert (state, prefix, stopped) == (want[0], want[1], want[5])
    assert (scalar is None) == (want[2] is None) and (scalar is None or _same_number(scalar, want[2]))
    assert _same_number(product, want[4]) and type(product) is type(want[4])
    assert [drop for _, drop, _ in drops] == [drop for _, drop, _ in want[3]]
    for (psi_value, _, value), (psi_want, _, value_want) in zip(drops, want[3]):
        assert _same_number(psi_value, psi_want) and _same_number(value, value_want)


@pytest.mark.parametrize("kind", sorted(_walk_moment_kinds))
@settings(max_examples=12, deadline=None)
@given(data=st.data(), words=word_sequences())
def test_a_record_walked_on_from_its_prefix_is_the_record_walked_from_scratch(kind, data, words):
    # the records an evaluator keeps, most of them walked on by one letter
    # from their prefix's record, are the records that the same states
    # leave walked from the record of no letter, and so is the word's value
    evaluator = CFreeEvaluator(*data.draw(specialized_functionals(kind, min_moments=0)))
    for word in words:
        outcome = _outcome(evaluator.eval, word)
        if outcome[0] == "error" or not evaluator._path:
            continue
        for record in evaluator._path:
            value, scratch = evaluator._extend(cfree._NO_LETTER, record[0])
            _same_record(record, scratch)
        if len(word) >= 2:  # the last record is the word's
            assert _same_number(value, outcome[1]) and type(value) is type(outcome[1])


@pytest.mark.parametrize("max_len, max_power", [(1, 1), (1, 4), (4, 1), (3, 2), (4, 3), (6, 2)])
def test_depth_first_words_are_the_length_first_words(max_len, max_power):
    words = [word.letters for word in canonical_words(max_len, max_power)]
    assert len(words) == len(set(words)) == 2 * sum(max_power**k for k in range(1, max_len + 1))
    assert set(words) == {word.letters for word in length_first_words(max_len, max_power)}
    for word, after in zip(words, words[1:]):
        # each word's prefix one letter shorter is the word before it or a prefix of that one
        assert after[:-1] == word[: len(after) - 1]
        if len(word) < max_len:
            assert after == (*word, (3 - word[-1][0], 1))
    assert len(words[-1]) == max_len


@pytest.mark.parametrize("max_len, max_power", [(0, 2), (-1, 1), (2, 0)])
def test_bounds_below_1_give_the_length_first_words(max_len, max_power):
    words = [word.letters for word in canonical_words(max_len, max_power)]
    assert words == [word.letters for word in length_first_words(max_len, max_power)] == []


def test_sweep_passes_monotone_eval_the_canonical_order(monkeypatch):
    monotone = cfree.monotone_eval
    seen = []

    def recording(word, a, b):
        seen.append(word.letters)
        return monotone(word, a, b)

    monkeypatch.setattr(cfree, "monotone_eval", recording)
    rng = np.random.default_rng(12)
    assert monotone_specialization_defect(frac_moments(rng, 12), frac_moments(rng, 12), 4, 3)[0] == 0
    assert seen == [word.letters for word in canonical_words(4, 3)]


def test_a_sweep_keeps_at_most_max_len_path_records(monkeypatch):
    evaluators = []
    init = CFreeEvaluator.__init__

    def recording(self, *functionals):
        init(self, *functionals)
        evaluators.append(self)

    monkeypatch.setattr(CFreeEvaluator, "__init__", recording)
    rng = np.random.default_rng(13)
    monotone_specialization_defect(frac_moments(rng, 15), frac_moments(rng, 15), max_len=5, max_power=3)
    (evaluator,) = evaluators
    assert 1 <= len(evaluator._path) <= 5
    last = evaluator._path[-1][0]
    assert [record[0] for record in evaluator._path] == [last[: k + 1] for k in range(len(last))]


# -- interned evaluator against the moment-cumulant formula ------------------------


@pytest.mark.parametrize("specialization", ["free", "boolean", "monotone", "independent"])
def test_evaluator_matches_cumulant_oracle(specialization):
    rng = np.random.default_rng(11)
    phi1, psi1, phi2, psi2 = (frac_moments(rng, 6) for _ in range(4))
    delta = MomentFunctional.delta()
    functionals = {
        "free": (phi1, phi1, phi2, phi2),
        "boolean": (phi1, delta, phi2, delta),
        "monotone": (phi1, delta, phi2, phi2),
        "independent": (phi1, psi1, phi2, psi2),
    }[specialization]
    evaluator = CFreeEvaluator(*functionals)
    oracle = CumulantCFree(*functionals, order=6)  # 3 letters of power 2 in one algebra
    for word in canonical_words(5, 2):
        assert evaluator.eval(word) == oracle.eval(word)


# -- bridge to measures and operators ----------------------------------------------


def _normalized(atoms):
    angles, weights = (np.array(column) for column in zip(*atoms))
    return angles, weights / weights.sum()


atomic_measures = st.lists(
    st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.05, 1.0)), min_size=2, max_size=4
).map(_normalized)


@settings(max_examples=25, deadline=None)
@given(first=atomic_measures, second=atomic_measures)
def test_word_expansion_reproduces_convolution_moments(first, second):
    # Phi((U V)^k) expanded through U = 1 + u, evaluated monotonically and by
    # the two-state recursion, must match the operator model and the
    # convolution moments.
    (angles1, w1), (angles2, w2) = first, second
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
    evaluator = CFreeEvaluator(phi1, MomentFunctional.delta(), phi2, phi2)

    conv = monotone_convolve(mu, nu, kmax).moments(kmax)

    # independent operator-model values
    m1 = diagonal_unitary_model(angles1, w1, "U")
    m1 = MatrixModel(m1.dim, m1.state, {**m1.operators, "One": np.eye(m1.dim)})
    m2 = diagonal_unitary_model(angles2, w2, "V")
    prod = monotone_product(m1, m2)
    u_bar = np.eye(prod.dim) + prod.operators["U"] - prod.operators["One"]
    op_moms = operator_moments(u_bar @ prod.operators["V"], prod.state, kmax)

    for k in range(1, kmax + 1):
        total = total_cfree = 0j
        for r in range(k + 1):  # choose which of the k U-slots contribute u
            for positions in combinations(range(k), r):
                letters = []
                for slot in range(k):
                    if slot in positions:
                        letters.append((1, 1))
                    letters.append((2, 1))
                word = Word(tuple(letters))
                total += monotone_eval(word, phi1, phi2)
                total_cfree += evaluator.eval(word)
        assert abs(total - conv[k - 1]) < 1e-10
        assert abs(total - op_moms[k - 1]) < 1e-10
        assert abs(total_cfree - conv[k - 1]) < 1e-10
