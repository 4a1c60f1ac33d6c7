"""Product functionals on the free product of two single-generator algebras.

A :class:`Word` is an alternating product of generator powers from two
algebras.  The monotone product functional factors such a word directly:
the first-algebra letters concatenate under phi_1 while each
second-algebra letter contributes its own phi_2 factor.  The two-state
(conditionally free) product is defined by a centering rule instead: on
words whose letters are centered for the psi functionals, phi factors
letterwise.  :class:`CFreeEvaluator` turns that rule into one left-to-right
walk over each state s = l_1 ... l_n.  A letter splits as
l_j = psi(l_j) + c_j with psi(c_j) = 0, and the walk goes on with c_j in
its place, so

    value(s) = sum_j psi(l_j) * value(drop_j) + prod_j phi(c_j),

where drop_j is c_1 ... c_{j-1} l_{j+1} ... l_n with its two seam letters
c_{j-1} and l_{j+1} merged, and the sum runs over the letters with
psi(l_j) != 0 (the others stay as they are, c_j = l_j).  The last term is
the product over the centered prefix, which is the whole state once the
walk ends.  Centered constant terms are constructed so the centering test
is exact in both rational and floating arithmetic.  Each distinct letter,
a polynomial in one generator, is interned once per evaluator as a small
int, so its psi and phi values and its products with neighbors are
derived once; states are tuples of letter ids, and the memo keeps the
value of each state a walk starts from: the words evaluated and the drop
states their walks reach.  A partly centered state is never formed.
Terms and factors that are exactly zero are skipped rather than
multiplied or added.

Words that share a prefix share its walk.  The walk of s = l_1 ... l_m
leaves a record: c_1 ... c_m, the split of l_m, the product of the
phi(c_j), and the drop states of the split letters before l_m.  Those
drops, the letters t = x_1 ... x_k appended, are the drops of s t at the
same letters, so the walk of s t goes on from the record: it reads their
values, then the value of l_m's drop c_1 ... c_{m-2} (c_{m-1} x_1)
x_2 ... x_k, then walks on through t and multiplies in the phi(c_x).
The record of no letter, that of the empty state, makes the same walk a
walk from scratch; there is no other walk.  An evaluator keeps the
records of the last word's prefixes, and the sweep yields its words depth
first, so each word is walked on by one letter from the record of the
word before it or of one of that word's prefixes.  The word length is
capped to keep the expansion bounded; the largest sweep the caps admit,
976,560 words of length up to 8 and power up to 5, memoizes about
1.2 * 10^6 states (7.3 s and 226 MB max RSS on one core of a shared
2-core x86-64 machine).

Specializations: psi_i = phi_i gives the free product, psi_i = delta
(vanishing on all generator powers) the boolean product, and
(psi_1, psi_2) = (delta, phi_2) reproduces the monotone product exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from ._util import integral_at_least
from .errors import DomainError

__all__ = [
    "Word",
    "MomentFunctional",
    "monotone_eval",
    "cfree_eval",
    "CFreeEvaluator",
    "canonical_words",
    "monotone_specialization_defect",
]

_MAX_WORD_LEN = 16
_MAX_SWEEP_WORDS = 10**6
# a sweep of rational moments carries s^N in the values of words of total
# power N, so N, up to max_len * max_power, is capped too
_MAX_SWEEP_POWER = 256
# the record of the empty state (see CFreeEvaluator): a walk on from it is a walk from scratch
_NO_LETTER = ((), (), None, (), 1, False)


@dataclass(frozen=True)
class Word:
    """Letters (algebra, power) with algebra in {1, 2} and power >= 0.

    A word is canonical from construction: adjacent letters from the same
    algebra merge (powers add) and power-0 letters drop, so adjacent
    algebra indices alternate and two words equal as algebra elements
    compare equal.  The empty word is the unit.  Both entries of a letter
    must be integral (numpy ints and 2.0 are); 1.5 raises ``ValueError``.
    """

    letters: tuple

    def __init__(self, letters):
        merged = []
        for alg, power in letters:
            alg = integral_at_least(alg, "algebra index", 1)
            if alg > 2:
                raise ValueError(f"algebra index must be 1 or 2, got {alg}")
            power = integral_at_least(power, "letter power", 0)
            if power == 0:
                continue
            if merged and merged[-1][0] == alg:
                merged[-1] = (alg, merged[-1][1] + power)
            else:
                merged.append((alg, power))
        object.__setattr__(self, "letters", tuple(merged))

    def canonical(self) -> "Word":
        """The word itself: construction already canonicalizes."""
        return self

    def swapped(self) -> "Word":
        """The word with the two algebra labels exchanged."""
        return Word(tuple((3 - alg, power) for alg, power in self.letters))

    def __len__(self):
        return len(self.letters)


class MomentFunctional:
    """Unital linear functional on one generator, given by moments m_1..m_N.

    Values may be ints, Fractions, floats or complex; m_0 = 1 implicitly.
    A NaN or infinite moment raises ``ValueError``.  Exact rationals are
    not converted to float for the test, so large Fractions are accepted.
    """

    __slots__ = ("moments",)

    def __init__(self, moments):
        moments = tuple(moments)
        for m in moments:
            if not isinstance(m, Rational) and not cmath.isfinite(m):
                raise ValueError(f"moments must be finite, got {m!r}")
        self.moments = moments

    @classmethod
    def delta(cls) -> "MomentFunctional":
        """The functional vanishing on every positive generator power."""
        return _DeltaFunctional()

    def __call__(self, k: int):
        if k == 0:
            return 1
        if k < 0:
            raise ValueError(f"moment order must be >= 0, got {k}")
        if k <= len(self.moments):
            return self.moments[k - 1]
        raise DomainError(
            f"moment of order {k} required but only {len(self.moments)} stored"
        )

    def _dilated(self, s: int, order: int) -> "MomentFunctional":
        """The functional of s*x through ``order``, m_k -> s^k m_k, as ints; s must clear every denominator."""
        return MomentFunctional(
            [m.numerator * (s // m.denominator) * s ** (k - 1) for k, m in enumerate(self.moments[:order], 1)]
        )

    def __repr__(self):
        return f"MomentFunctional(n={len(self.moments)})"


class _DeltaFunctional(MomentFunctional):
    """delta(x^k) = 0 for every k >= 1, with no order bound."""

    def __init__(self):
        super().__init__(())

    def __call__(self, k: int):
        if k < 0:
            raise ValueError(f"moment order must be >= 0, got {k}")
        return 1 if k == 0 else 0

    def _dilated(self, s: int, order: int) -> "MomentFunctional":
        """delta of s*x is delta."""
        return self

    def __repr__(self):
        return "MomentFunctional.delta()"


def monotone_eval(word: Word, phi1: MomentFunctional, phi2: MomentFunctional):
    """Monotone product functional on a word.

    Equals phi_1 at the total first-algebra power times the product of
    phi_2 over the individual second-algebra letters, multiplied in word
    order.  Moments are read from the stored tuples by index; order 0 and
    orders beyond the stored moments (every order of the delta functional,
    which stores none) go through :meth:`MomentFunctional.__call__`, which
    answers them or raises the ``DomainError``.
    """
    letters = word.letters
    total = 0
    for alg, p in letters:
        if alg == 1:
            total += p
    stored = phi1.moments
    val = stored[total - 1] if 0 < total <= len(stored) else phi1(total)
    stored = phi2.moments
    for alg, p in letters:
        if alg == 2:
            val = val * (stored[p - 1] if p <= len(stored) else phi2(p))
    return val


class CFreeEvaluator:
    """Evaluator for the two-state product functional with a shared memo.

    Reuse one instance to evaluate many words against the same four
    functionals; letters and subwords repeat heavily across a sweep.  Each
    distinct letter (algebra, polynomial) is interned once as a small int,
    and its psi value, centered letter and phi value are derived from the
    functionals on first use only.  A state is a tuple of letter ids, and
    the memo and the merges of neighboring letters are keyed on ids.  Words
    arrive canonical (see :class:`Word`), so the letters of a state always
    alternate between the two algebras, and a table maps each word letter
    (algebra, power) straight to the id of x^power.  A word of more than 16
    letters, the expansion cap, raises ``DomainError``.

    A state is walked once, left to right, on from the record of a prefix
    walked before or from that of no letter (see the module docstring).
    At each letter with a nonzero psi value the walk reads the value of the
    drop state from the memo, evaluating it only on a miss, records it
    with the psi scalar and goes on with the centered letter.  At the end
    it derives the phi value of each letter it added to the centered prefix
    and multiplies it into the record's product, then folds the recorded
    terms into that from right to left.  The memo keeps the values of the
    words and drop states walked, nothing between two splits.  Each letter
    of a state is checked for a split once, centered ones included, since a
    psi tail that overflowed to inf leaves a "centered" letter whose psi
    value is inf - inf = nan; the centered letter a split leaves in its
    place is not checked again.

    A word is walked on from the record its prefix one letter shorter left
    when the evaluator keeps it: it keeps the records of the prefixes of
    the last word, at most 16.  A word the memo holds is walked all the
    same, to keep its record, which reads only memoized values.  A word of
    two letters whose prefix's record is not kept is walked from scratch,
    and then so is its first letter, whose values that walk derived, for
    its record.  Any other such word, and any drop state, is walked from
    scratch and leaves no record, since the records of its prefixes would
    take walks of the prefixes.  Neither the records nor the order of the
    words changes a value, an error or the memo.

    Work that is exactly zero is skipped: a zero drop value is not
    multiplied by the psi scalar, a zero value of the rest of the walk is
    not added to a term, and the product stops at its first zero phi
    factor and returns it.  In the monotone specialization most states are
    zero, since every psi_2-centered letter has phi_2 value 0.  Values equal
    those of the expansion without these shortcuts, and so does their type
    when all four functionals share one moment kind; with mixed kinds a zero
    may come back as int 0 where the full expansion gives ``Fraction(0)``.
    A float that overflowed to inf no longer meets a zero term or factor, so
    where the full expansion gives nan (say, a product that overflowed
    before its zero factor) this one gives a number (that product is 0).
    A missing moment raises the same ``DomainError``: the drop states, and
    then the phi factors, are evaluated in walk order.
    """

    def __init__(self, phi1, psi1, phi2, psi2):
        self._phi = {1: phi1, 2: phi2}
        self._psi = {1: psi1, 2: psi2}
        self._ids = {}  # (algebra, polynomial) -> letter id
        self._word_ids = {}  # word letter (algebra, power) -> id of x^power
        self._letters = []  # id -> (algebra, polynomial)
        self._splits = []  # id -> None until derived, then False or (psi value, centered id)
        self._phi_values = []  # id -> None until derived, then phi of the letter
        self._merged = {}  # (id, id) -> id of the product letter
        self._memo = {}
        # the records of the last word's prefixes, path[k] of length k + 1.  A
        # record is (state, centered letters, the last letter's psi scalar or
        # None, the (psi scalar, drop state, drop value) of the other split
        # letters, the product of the phi values, whether it stopped at 0);
        # _NO_LETTER is the empty state's
        self._path = []

    def eval(self, word: Word):
        letters = word.letters
        if len(letters) > _MAX_WORD_LEN:
            raise DomainError(f"word length {len(letters)} exceeds the expansion cap {_MAX_WORD_LEN}")
        if len(letters) < 2:
            if not letters:
                return 1
            # phi(x^p) = 0 + phi(p), as in _phi_value; a lone letter is not
            # interned, so a sweep of many powers keeps no polynomial alive
            alg, p = letters[0]
            return 0 + self._phi[alg](p)
        ids = self._word_ids
        try:
            state = tuple([ids[letter] for letter in letters])
        except KeyError:  # a letter met for the first time
            state = tuple([self._word_id(letter) for letter in letters])
        return self._word_value(state)

    def _word_value(self, state):
        """The value of a word's state of >= 2 letters, walked on from its prefix's record if kept.

        A word the memo holds is walked all the same, to keep its record:
        its drops are memoized or single letters, so nothing else is walked.
        """
        path = self._path
        n = len(state)
        if len(path) >= n - 1 and path[n - 2][0] == state[:-1]:
            del path[n - 1 :]
            value, record = self._extend(path[-1], state)
        else:
            path.clear()
            if n > 2:  # left without records; a prefix's would take a walk of the prefix
                return self._value(state)
            value, record = self._extend(_NO_LETTER, state)
            # the walk derived the first letter's values, so its own walk only reads them
            path.append(self._extend(_NO_LETTER, state[:1])[1])
        self._memo[state] = value
        path.append(record)
        return value

    def _word_id(self, letter):
        """The id of x^power for a word letter (algebra, power), interned on first use."""
        letter_id = self._word_ids.get(letter)
        if letter_id is None:
            alg, p = letter
            letter_id = self._word_ids[letter] = self._intern(alg, (0,) * p + (1,))
        return letter_id

    # letters are polynomials in the generator; index = power, monic by
    # construction, so merged letters never collapse to scalars
    def _intern(self, alg, poly):
        key = (alg, poly)
        letter = self._ids.get(key)
        if letter is None:
            letter = self._ids[key] = len(self._letters)
            self._letters.append(key)
            self._splits.append(None)
            self._phi_values.append(None)
        return letter

    def _split(self, letter):
        """Derive (psi(letter), id of letter - psi(letter)), or False when psi(letter) = 0.

        The centered letter's constant term is literally -tail, so its own psi
        value is -tail + tail, exactly 0 in rational and floating arithmetic.
        """
        alg, poly = self._letters[letter]
        tail = _tail(self._psi[alg], poly)
        scalar = poly[0] + tail
        split = (scalar, self._intern(alg, (-tail,) + poly[1:])) if scalar != 0 else False
        self._splits[letter] = split
        return split

    def _phi_value(self, letter):
        val = self._phi_values[letter]
        if val is None:
            alg, poly = self._letters[letter]
            val = self._phi_values[letter] = poly[0] + _tail(self._phi[alg], poly)
        return val

    def _value(self, state):
        if not state:
            return 1
        if len(state) == 1:
            return self._phi_value(state[0])
        memo = self._memo
        hit = memo.get(state)
        if hit is not None:
            return hit
        value = memo[state] = self._extend(_NO_LETTER, state)[0]
        return value

    def _extend(self, record, state):
        """The value of ``state``, walked on from ``record``, that of a shorter prefix, and its record.

        The record's state was walked, so its splits and phi values are
        derived.  The walk reads the values of the record's drops with the
        new letters appended, then of its last letter's drop, now merged
        with the first new letter, then splits each new letter and reads the
        value of its drop, and last derives the phi values of the new
        centered letters: the order of a walk from scratch, which is the
        walk on from ``_NO_LETTER``, less the work the record holds.  The
        value is left for the caller to memoize.
        """
        known, prefix, scalar, heads, product, stopped = record
        memo = self._memo
        merged = self._merged
        start = len(known)
        rest = state[start:]
        drops = []  # (psi scalar, drop state, drop value) at each split letter but the last, left to right
        for head_scalar, head, _ in heads:
            drop = head + rest
            value = memo.get(drop)
            drops.append((head_scalar, drop, self._value(drop) if value is None else value))
        if scalar is not None:  # the last letter walked, no longer an end letter, merges its neighbors
            if start > 1:
                pair = (prefix[-2], state[start])
                joined = merged.get(pair)
                if joined is None:
                    joined = self._join(pair)
                drop = (*prefix[:-2], joined, *state[start + 1 :])
            else:
                drop = rest
            value = memo.get(drop)
            drops.append((scalar, drop, self._value(drop) if value is None else value))
        splits = self._splits
        last = len(state) - 1
        for letter in rest:
            split = splits[letter]
            if split is None:
                split = self._split(letter)
            if split:
                # letter = scalar*1 + centered, and psi(centered) = 0
                scalar, letter = split
                i = len(prefix)  # the letter's index: prefix holds the letters before it
                if 0 < i < last:
                    pair = (prefix[-1], state[i + 1])
                    joined = merged.get(pair)
                    if joined is None:
                        joined = self._join(pair)
                    drop = (*prefix[:-1], joined, *state[i + 2 :])
                else:  # an end letter has one neighbor, nothing to merge
                    drop = prefix if i else state[1:]
                value = memo.get(drop)
                value = self._value(drop) if value is None else value
                if i < last:  # the last letter's drop is not extended: a longer state merges it
                    drops.append((scalar, drop, value))
            prefix += (letter,)
        # the phi factors of the new centered letters, each derived in walk
        # order even after the product has stopped at a zero factor, so a
        # missing moment raises just as in the full product
        phi_values = self._phi_values
        for letter in prefix[start:]:
            factor = phi_values[letter]
            if factor is None:
                factor = self._phi_value(letter)
            if not stopped:
                if factor == 0:
                    product, stopped = factor, True
                else:
                    product = product * factor
        # fold right to left; a zero term is neither multiplied nor added
        val = product
        if split and value != 0:  # the last letter's term
            val = scalar * value if val == 0 else scalar * value + val
        for psi_value, _, drop in reversed(drops):
            if drop != 0:
                val = psi_value * drop if val == 0 else psi_value * drop + val
        return val, (state, prefix, scalar if split else None, drops, product, stopped)

    def _join(self, pair):
        """Derive the id of the product of the two letters in ``pair``.

        They are the seam letters on either side of a dropped letter of an
        alternating state, so they come from the same algebra.  The right
        one is a word letter x^q unless a centered letter before it split
        again on an overflowed psi tail, so the two are multiplied in full.
        """
        left, right = pair
        alg, a = self._letters[left]
        joined = self._merged[pair] = self._intern(alg, _poly_mul(a, self._letters[right][1]))
        return joined


def _poly_mul(a, b):
    """The product of two coefficient tuples, skipping zero coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        if cb != 0:
            for i, ca in enumerate(a):
                if ca != 0:
                    out[i + j] = out[i + j] + ca * cb
    return tuple(out)


def _tail(functional, poly):
    """sum_{k >= 1} poly[k] * functional(k), skipping zero coefficients.

    Letters are monic of degree >= 1, so the sum starts from the top term
    functional(top) instead of from 0: with Fraction moments that saves an
    addition and a multiplication per call.
    """
    top = len(poly) - 1
    tail = functional(top)
    for k in range(1, top):
        if poly[k] != 0:
            tail = tail + poly[k] * functional(k)
    return tail


def cfree_eval(word: Word, phi1, psi1, phi2, psi2):
    """One-shot two-state product evaluation (see :class:`CFreeEvaluator`)."""
    return CFreeEvaluator(phi1, psi1, phi2, psi2).eval(word)


def canonical_words(max_len: int, max_power: int):
    """All canonical alternating words up to the given length and power.

    The words come depth first, those starting in algebra 1 before those
    starting in algebra 2: each word shorter than max_len is followed by
    its extension by one letter of power 1 and that word's extensions, then
    by its extension by power 2, and so on, so every word's prefix one
    letter shorter is the word before it or a prefix of that word.  The
    letters are generated alternating with powers >= 1, so the words are
    built without :class:`Word`'s validation.  A max_len below 1 gives no word.
    """
    if max_len < 1:
        return
    # one-letter extensions by algebra, pushed in reverse to pop ascending
    steps = {alg: [((alg, p),) for p in range(max_power, 0, -1)] for alg in (1, 2)}
    for start in (1, 2):
        stack = steps[start][:]
        while stack:
            letters = stack.pop()
            word = object.__new__(Word)
            object.__setattr__(word, "letters", letters)
            yield word
            if len(letters) < max_len:
                stack += [letters + step for step in steps[3 - letters[-1][0]]]


def monotone_specialization_defect(phi1, phi2, max_len: int = 8, max_power: int = 4):
    """Sweep the identity cfree(phi1, delta; phi2, phi2) = monotone(phi1, phi2).

    Returns (max absolute defect, words checked); the words are all
    2 * sum_{k <= max_len} max_power^k canonical words.  Both bounds must be
    >= 1, max_len at most the expansion cap, the word count at most 10^6
    and the largest total power of a word, max_len * max_power, at most
    256.

    With rational moments the sweep runs in int arithmetic on x -> s*x,
    where s is the lcm of the moment denominators: m_k becomes the integer
    s^k m_k.  Both sides are weighted-homogeneous (a word of total power N
    is a sum of moment monomials of total order N), so a gap on the
    rescaled moments is s^N times the true one, and the defect returned is
    that gap divided by s^N: exact, and a ``Fraction`` when nonzero.  Float
    or complex moments take s = 1 unchanged; where the two sides of a word
    disagree by NaN (an overflowed side), the defect returned is NaN.
    """
    _check_sweep_bounds(max_len, max_power)
    order = max_len * max_power  # no word asks for a higher moment
    moments = phi1.moments[:order] + phi2.moments[:order]
    s = 1
    if all(isinstance(m, Rational) for m in moments):
        s = math.lcm(*(m.denominator for m in moments))
        phi1, phi2 = phi1._dilated(s, order), phi2._dilated(s, order)
    evaluator = CFreeEvaluator(phi1, MomentFunctional.delta(), phi2, phi2)
    worst = 0
    count = 0
    for word in canonical_words(max_len, max_power):
        lhs = evaluator.eval(word)
        rhs = monotone_eval(word, phi1, phi2)
        if lhs != rhs:
            gap = abs(lhs - rhs)
            if isinstance(gap, Rational):
                gap = Fraction(gap, s ** sum(p for _, p in word.letters))
            if gap > worst or gap != gap:  # a NaN gap stays the defect: nothing beats it
                worst = gap
        count += 1
    return worst, count


def _check_sweep_bounds(max_len, max_power):
    """Reject sweep bounds before any moment is drawn or any word evaluated."""
    if max_len < 1 or max_power < 1:
        raise ValueError("word length and power bounds must be >= 1")
    if max_len > _MAX_WORD_LEN:
        raise DomainError(f"word length {max_len} exceeds the expansion cap {_MAX_WORD_LEN}")
    words = 2 * sum(max_power**k for k in range(1, max_len + 1))
    if words > _MAX_SWEEP_WORDS:
        raise DomainError(f"sweep of {words} words exceeds the cap {_MAX_SWEEP_WORDS}")
    if max_len * max_power > _MAX_SWEEP_POWER:
        raise DomainError(
            f"sweep words of total power up to {max_len * max_power} exceed the cap {_MAX_SWEEP_POWER}"
        )
