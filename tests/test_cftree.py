"""Word tree, periodizations, and rational companions."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topograph import (
    DomainError,
    PreconditionError,
    QuadraticIrrational,
    cf_eval,
    cf_expand_even,
    compare_gap,
    convergent_matrix,
    enumerate_tree,
    farey_mediant,
    format_qi,
    left_companion,
    make_qi,
    markov_cf,
    markov_fraction,
    markov_irrationality,
    periodic_value,
    qi_compare,
    qi_satisfies,
)

GOLDEN = make_qi(1, 1, 2, 5)


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


def test_companion_matrices_are_powers():
    for t in (Fraction(1, 2), Fraction(2, 5)):
        word = markov_cf(t)
        base = convergent_matrix(word)
        for m in range(1, 9):
            assert convergent_matrix(word * m) == base ** m
