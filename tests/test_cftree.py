"""Word tree, periodizations, and rational companions."""

import pickle
import re
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topograph import (
    DomainError,
    Mat2,
    PreconditionError,
    QuadraticIrrational,
    cf_concat,
    cf_eval,
    cf_expand_even,
    compare_gap,
    convergent_matrix,
    descend,
    enumerate_tree,
    farey_mediant,
    format_qi,
    left_companion,
    locate,
    make_qi,
    markov_cf,
    markov_fraction,
    markov_irrationality,
    mirror,
    periodic_value,
    qi_compare,
    qi_satisfies,
)
from topograph.cftree import MarkovWord, fixed_point
from topograph import rational
from topograph.rational import Word, _validate_word

GOLDEN = make_qi(1, 1, 2, 5)

# words over small quotients, arbitrary content, even length
even_words = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=20
).map(lambda pairs: tuple(c for pair in pairs for c in pair))


# ============================================================
# the word tree
# ============================================================

def test_word_boundaries():
    assert markov_cf(Fraction(0)) == (1, 1)
    assert markov_cf(Fraction(1)) == (2, 2)


def test_word_examples():
    assert markov_cf(Fraction(1, 2)) == (2, 2, 1, 1)
    assert markov_cf(Fraction(1, 3)) == (2, 2, 1, 1, 1, 1)
    assert markov_cf(Fraction(2, 3)) == (2, 2, 2, 2, 1, 1)
    assert markov_cf(Fraction(2, 5)) == (2, 2, 1, 1, 2, 2, 1, 1, 1, 1)
    assert markov_cf(Fraction(3, 5)) == (2, 2, 2, 2, 1, 1, 2, 2, 1, 1)


def test_word_domain():
    with pytest.raises(DomainError):
        markov_cf(Fraction(-1, 3))


def test_words_match_direct_expansion():
    """Structural concatenation equals Euclidean expansion at every node."""
    for node in enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 7):
        t = node.value
        word = markov_cf(t)
        assert word == cf_expand_even(2 + markov_fraction(t))
        assert cf_eval(word) == 2 + markov_fraction(t)


def test_markov_cf_is_a_word_equal_to_the_step_by_step_descend():
    for t in (Fraction(0), Fraction(1)):
        assert type(markov_cf(t)) is MarkovWord
    for node in enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 6):
        word = markov_cf(node.value)
        assert type(word) is MarkovWord
        assert word == descend((2, 2), (1, 1), cf_concat, mirror(locate(node.value))).value


# letters refused as a Word is made, with the message a word has always had
BAD_LETTERS = {
    "bool": ([1, True], "continued fraction quotient must be an int >= 1, got True"),
    "empty": ([], "continued fraction word must be nonempty"),
    "zero": ([0], "continued fraction quotient must be an int >= 1, got 0"),
}


@pytest.mark.parametrize("case", BAD_LETTERS)
def test_a_word_is_checked_as_it_is_made(case):
    letters, message = BAD_LETTERS[case]
    for make in (Word, convergent_matrix, cf_eval):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            make(letters)


def test_a_word_is_taken_as_it_is_and_still_checked_for_even_length(monkeypatch):
    word = Word([2, 2, 1, 1])
    assert word == (2, 2, 1, 1) and type(word) is Word
    assert _validate_word(word) is word
    assert _validate_word(word, even=True) is word
    # markov_cf's word is a Word too, and is taken as it is, unread.
    markov_word, checked, real = markov_cf(Fraction(5, 13)), [], rational._letters
    monkeypatch.setattr(rational, "_letters", lambda word: checked.append(word) or real(word))
    assert _validate_word(markov_word) is markov_word
    assert _validate_word(markov_word, even=True) is markov_word
    assert checked == []
    with pytest.raises(PreconditionError, match="^word length must be even, got 3$"):
        _validate_word(Word([2, 2, 1]), even=True)
    # Any other input is checked as it always was, and not copied into a Word.
    letters = (2, 2)
    assert _validate_word(letters) is letters
    assert _validate_word([2, 2]) == letters


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_pickled_word_is_checked_again_as_it_is_loaded(protocol):
    word = Word([2, 2, 1, 1])
    loaded = pickle.loads(pickle.dumps(word, protocol))
    assert loaded == word and type(loaded) is Word
    planted = tuple.__new__(Word, (1, 0))
    with pytest.raises(DomainError, match="^continued fraction quotient must be an int >= 1, got 0$"):
        pickle.loads(pickle.dumps(planted, protocol))


def test_word_lengths_add_like_the_tree():
    lengths = {}
    for node in enumerate_tree((2, 2), (1, 1), lambda u, v: u + v, 8):
        lengths[node.path] = len(node.value)
        assert len(node.value) == len(node.left) + len(node.right)
    assert lengths[""] == 4


# ============================================================
# quadratic irrationals
# ============================================================

def test_make_qi_canonicalizes():
    assert make_qi(4, 2, 6, 7) == QuadraticIrrational(2, 1, 3, 7)
    assert make_qi(4, 1, 4, 32) == QuadraticIrrational(4, 1, 4, 32)


def test_make_qi_validates():
    with pytest.raises(DomainError):
        make_qi(1, 1, 2, 9)  # square
    with pytest.raises(DomainError):
        make_qi(1, 1, 2, -5)
    with pytest.raises(DomainError):
        make_qi(1, 0, 2, 5)
    with pytest.raises(DomainError):
        make_qi(1, 1, 0, 5)


def _make_qi_route(m: Mat2):
    """fixed_point as make_qi gives it, isqrt and gcd included."""
    return make_qi(m.e11 - m.e22, 1, 2 * m.e21, (m.e22 - m.e11) ** 2 + 4 * m.e21 * m.e12)


def _outcome(route, m: Mat2):
    """route(m), or the type and message of what it raises."""
    try:
        return route(m)
    except DomainError as exc:
        return type(exc), str(exc)


def test_fixed_point_is_the_make_qi_route_on_the_irrational_tree():
    seeds = convergent_matrix((2, 2)), convergent_matrix((1, 1))
    matrices = [*seeds] + [node.value for node in enumerate_tree(*seeds, Mat2.__matmul__, 8)]
    assert len(matrices) == 2 + 511
    for m in matrices:
        assert m.det() == 1
        assert fixed_point(m) == _make_qi_route(m)


@given(even_words)
def test_fixed_point_is_the_make_qi_route_on_even_words(word):
    m = convergent_matrix(word)
    assert fixed_point(m) == _make_qi_route(m)


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=3000))
def test_periodization_matches_formula_at_any_coordinate(t):
    assert periodic_value(markov_cf(t)) == markov_irrationality(markov_fraction(t))


@given(st.lists(st.integers(1, 9), min_size=1, max_size=11).filter(lambda w: len(w) % 2))
def test_odd_words_still_take_the_make_qi_route(word):
    m = convergent_matrix(word)
    assert m.det() == -1
    assert fixed_point(m) == _make_qi_route(m)


@pytest.mark.parametrize("m,outcome", [
    (Mat2(1, 1, 0, 1), (DomainError, "D must be a positive nonsquare, got 0")),
    (Mat2(1, 0, 1, 1), (DomainError, "D must be a positive nonsquare, got 0")),
    (Mat2(1, -1, 1, 0), (DomainError, "D must be a positive nonsquare, got -3")),
    (Mat2(0, -1, 1, 0), (DomainError, "D must be a positive nonsquare, got -4")),
    (Mat2(3, 1, -1, 0), (DomainError, "B and Q must be positive, got B=1, Q=-2")),
    (Mat2(5.0, 2, 2, 1), (DomainError, "P must be an int, got 4.0")),
    (Mat2(-1, 2, 1, -3), QuadraticIrrational(2, 1, 2, 12)),
    (Mat2(5, 2, 2, True), QuadraticIrrational(4, 1, 4, 32)),
], ids=["tr-2-q-0", "tr-2", "tr-1", "tr-0", "q-negative", "float-entry", "tr-negative",
        "bool-entry"])
def test_fixed_point_outside_the_det_1_route_keeps_make_qi_outcomes(m, outcome):
    # Each has |tr| < 3, q_k <= 0 or an entry that is no int, and so leaves the
    # det-1 route, but tr-negative: a trace of -4 takes it.
    assert _outcome(fixed_point, m) == _outcome(_make_qi_route, m) == outcome


def test_format_qi():
    assert format_qi(make_qi(9, 1, 10, 221)) == "(9+√221)/10"
    assert format_qi(make_qi(1, 2, 3, 5)) == "(1+2√5)/3"


def test_periodic_value_examples():
    assert periodic_value((1, 1)) == GOLDEN
    assert periodic_value((2, 2)) == make_qi(4, 1, 4, 32)
    assert periodic_value((2, 2, 1, 1)) == make_qi(9, 1, 10, 221)


def test_periodic_value_needs_even_words():
    with pytest.raises(PreconditionError):
        periodic_value((2, 2, 1))
    with pytest.raises(DomainError):
        periodic_value(())


def test_periodic_value_satisfies_its_quadratic():
    for word in ((1, 1), (2, 2), (2, 2, 1, 1), (2, 2, 1, 1, 1, 1)):
        x = periodic_value(word)
        m = convergent_matrix(word)
        assert qi_satisfies(x, m.e21, m.e22 - m.e11, -m.e12)
        # and it sits above 1, as a continued fraction value must
        assert qi_compare(Fraction(1), x) == -1


def test_equal_values_with_different_tuples():
    """(4 + sqrt(32))/4 is 1 + sqrt(2); equality shows through minimal polynomials."""
    x = periodic_value((2, 2))
    assert qi_satisfies(x, 1, -2, -1)
    assert not qi_satisfies(x, 1, -1, -1)


def test_irrationality_formula():
    assert markov_irrationality(Fraction(0, 1)) == GOLDEN
    assert markov_irrationality(Fraction(2, 5)) == make_qi(9, 1, 10, 221)
    assert markov_irrationality(Fraction(5, 13)) == make_qi(23, 1, 26, 1517)
    assert markov_irrationality(Fraction(12, 29)) == make_qi(53, 1, 58, 7565)


def test_periodization_matches_formula_on_a_window():
    for node in enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 6):
        t = node.value
        assert periodic_value(markov_cf(t)) == markov_irrationality(markov_fraction(t))


@given(st.integers(1, 10**9))
def test_discriminant_never_a_square(q):
    d = 9 * q * q - 4
    assert isqrt(d) ** 2 != d


# ============================================================
# comparisons
# ============================================================

def test_qi_compare_examples():
    assert qi_compare(Fraction(2), GOLDEN) == 1
    assert qi_compare(Fraction(3, 2), GOLDEN) == -1
    assert qi_compare(Fraction(179, 75), make_qi(9, 1, 10, 221)) == 1
    assert qi_compare(Fraction(12, 5), make_qi(9, 1, 10, 221)) == 1
    assert qi_compare(Fraction(-5), GOLDEN) == -1


def test_qi_satisfies_examples():
    assert qi_satisfies(GOLDEN, 1, -1, -1)
    assert qi_satisfies(make_qi(9, 1, 10, 221), 5, -9, -7)
    assert not qi_satisfies(make_qi(9, 1, 10, 221), 1, -1, -1)


def test_compare_gap_examples():
    target = make_qi(9, 1, 10, 221)
    assert compare_gap(Fraction(179, 75), Fraction(12, 5), target) == -1
    assert compare_gap(Fraction(12, 5), Fraction(179, 75), target) == 1
    assert compare_gap(Fraction(12, 5), Fraction(12, 5), target) == 0


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(4), max_denominator=10**4),
       st.fractions(min_value=Fraction(0), max_value=Fraction(4), max_denominator=10**4))
def test_compare_gap_agrees_with_floats(r1, r2):
    # float arithmetic is a sanity oracle here: golden ratio gaps of
    # moderate fractions are far from the rounding cliff
    import math

    x = (1 + math.sqrt(5)) / 2
    got = compare_gap(r1, r2, GOLDEN)
    lhs, rhs = abs(float(r1) - x), abs(float(r2) - x)
    if abs(lhs - rhs) > 1e-9:
        assert got == (1 if lhs > rhs else -1)


# ============================================================
# companions
# ============================================================

def test_companion_examples():
    assert left_companion(Fraction(1, 2), 1) == Fraction(12, 5)
    assert left_companion(Fraction(1, 2), 2) == Fraction(179, 75)
    assert left_companion(Fraction(1), 2) == Fraction(29, 12)
    # The repetition count is an int >= 1, and a bool is no int here.
    for m in (0, True, 1.0):
        with pytest.raises(DomainError, match="repetition count"):
            left_companion(Fraction(1, 2), m)


def test_companions_walk_down_onto_the_limit():
    for t in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5)):
        word = markov_cf(t)
        limit = periodic_value(word)
        previous = None
        for m in range(1, 9):
            value = left_companion(t, m)
            assert qi_compare(value, limit) == 1
            if previous is not None:
                assert compare_gap(value, previous, limit) == -1
            previous = value


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 500).flatmap(lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))),
       st.integers(1, 8))
def test_companion_is_the_repeated_word_evaluated(t, m):
    # The reference builds the 2qm-letter word that left_companion no longer builds.
    assert left_companion(t, m) == cf_eval(markov_cf(t) * m)


def test_companion_at_the_corner_is_the_repeated_word_evaluated():
    t, m = Fraction(1, 2), 2**16
    assert left_companion(t, m) == cf_eval(markov_cf(t) * m)


def test_companion_checks_no_letter(monkeypatch):
    # The word is grown from the checked seeds, and its m repetitions are one
    # matrix power, so no letter is checked again.
    checked, real = [], rational._letters
    monkeypatch.setattr(rational, "_letters", lambda word: checked.append(word) or real(word))
    assert left_companion(Fraction(2, 5), 8) > 2
    assert checked == []


def test_companion_matrices_are_powers():
    for t in (Fraction(1, 2), Fraction(2, 5)):
        word = markov_cf(t)
        base = convergent_matrix(word)
        for m in range(1, 9):
            assert convergent_matrix(word * m) == base ** m
