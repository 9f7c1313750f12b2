"""Fractions, mediants, continued fraction words, convergent matrices."""

import random
import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topograph import (
    DomainError,
    Mat2,
    PreconditionError,
    cf_concat,
    cf_eval,
    cf_expand_even,
    convergent_matrix,
    farey_mediant,
    format_cf_word,
    format_fraction,
    is_farey_neighbors,
    make_fraction,
    parse_cf_word,
    parse_fraction,
    parse_int,
    partial_quotients,
)
from topograph import rational
from topograph.rational import _mul, _pow
from topograph.verify import Window

# words over small quotients, arbitrary content, even length
even_words = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=6
).map(lambda pairs: tuple(c for pair in pairs for c in pair))

any_words = st.lists(st.integers(1, 9), min_size=1, max_size=12).map(tuple)


# ============================================================
# fractions and mediants
# ============================================================

def test_make_fraction_reduces():
    assert make_fraction(10, 26) == Fraction(5, 13)
    assert make_fraction(-3, -6) == Fraction(1, 2)
    assert format_fraction(make_fraction(0, 5)) == "0/1"


def test_make_fraction_zero_denominator():
    with pytest.raises(DomainError):
        make_fraction(1, 0)


def test_parse_fraction():
    assert parse_fraction("2/5") == Fraction(2, 5)
    assert parse_fraction(" 3 ") == Fraction(3)
    assert parse_fraction("-1/2") == Fraction(-1, 2)
    for junk in ("", "a/b", "1/2/3", "1.5"):
        with pytest.raises(DomainError):
            parse_fraction(junk)


def test_parse_int_reads_only_ascii_digits():
    # int alone reads the first, third and fourth of the refused texts.
    assert [parse_int(text, "n") for text in (" 7 ", "+3", "-0", "007")] == [7, 3, 0, 7]
    for text in ("1_0", "1 0", "\uff12", "\u0663", "", "+", "0x10", "1.0"):
        with pytest.raises(DomainError, match=f"^n must be ASCII digits with an optional "
                                              f"sign, got {re.escape(repr(text))}$"):
            parse_int(text, "n")


def test_format_keeps_unit_denominator():
    assert format_fraction(Fraction(0)) == "0/1"
    assert format_fraction(Fraction(3)) == "3/1"


def test_farey_neighbors():
    assert is_farey_neighbors(Fraction(0), Fraction(1))
    assert is_farey_neighbors(Fraction(2, 5), Fraction(3, 7))
    assert not is_farey_neighbors(Fraction(1, 3), Fraction(2, 3))


def test_farey_mediant_values():
    assert farey_mediant(Fraction(0), Fraction(1)) == Fraction(1, 2)
    assert farey_mediant(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
    assert farey_mediant(Fraction(2, 5), Fraction(1, 2)) == Fraction(3, 7)


def test_farey_mediant_rejects_non_neighbors():
    with pytest.raises(PreconditionError):
        farey_mediant(Fraction(1, 3), Fraction(2, 3))


@given(st.text(alphabet="LR", max_size=12))
def test_mediant_sits_between_and_stays_neighbor(path):
    # fold a random walk of the bracketing construction: every pair it
    # produces is a neighbor pair, and the mediant must split it properly
    lo, hi = Fraction(0), Fraction(1)
    for step in path:
        mid = farey_mediant(lo, hi)
        if step == "L":
            hi = mid
        else:
            lo = mid
    mid = farey_mediant(lo, hi)
    assert lo < mid < hi
    assert is_farey_neighbors(lo, mid)
    assert is_farey_neighbors(mid, hi)


# ============================================================
# continued fraction words
# ============================================================

def test_expand_even_examples():
    assert cf_expand_even(Fraction(5, 2)) == (2, 2)
    assert cf_expand_even(Fraction(2)) == (1, 1)
    assert cf_expand_even(Fraction(31, 13)) == (2, 2, 1, 1, 1, 1)
    assert cf_expand_even(Fraction(7, 3)) == (2, 3)
    assert cf_expand_even(Fraction(5, 3)) == (1, 1, 1, 1)


def test_expand_even_domain():
    for x in (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-3, 2)):
        with pytest.raises(DomainError):
            cf_expand_even(x)


def test_eval_examples():
    assert cf_eval((2, 2, 1, 1)) == Fraction(12, 5)
    assert cf_eval((2, 2, 2, 2, 1, 1)) == Fraction(70, 29)
    assert cf_eval((1, 1)) == 2
    assert cf_eval((3,)) == 3


def test_eval_rejects_bad_words():
    with pytest.raises(DomainError):
        cf_eval(())
    with pytest.raises(DomainError):
        cf_eval((2, 0, 1))
    with pytest.raises(DomainError):
        cf_eval((2, -1))


def test_concat():
    assert cf_concat((2, 2), (1, 1)) == (2, 2, 1, 1)
    assert cf_concat((2, 2, 1, 1), (1, 1)) == (2, 2, 1, 1, 1, 1)
    with pytest.raises(PreconditionError):
        cf_concat((2,), (1, 1))
    with pytest.raises(PreconditionError):
        cf_concat((2, 2), (1, 1, 1))


def test_word_formatting():
    assert format_cf_word((2, 2, 1, 1)) == "[2,2,1,1]"
    assert format_cf_word((2, 2), periodic=True) == "~[2,2]"
    assert parse_cf_word("[2,2,1,1]") == (2, 2, 1, 1)
    assert parse_cf_word("~[1,1]") == (1, 1)
    with pytest.raises(DomainError):
        parse_cf_word("2,2")


@pytest.mark.parametrize("text", ["[2,x]", "[]", "[2,,2]", "[1_0,2]", "[\uff12,2]"])
def test_word_parse_refuses_an_entry_that_is_no_int(text):
    with pytest.raises(DomainError, match="cannot parse word"):
        parse_cf_word(text)


def test_round_trip_random_sample():
    """expand then eval is the identity on a deterministic random sample."""
    rng = random.Random(20260819)
    for _ in range(2000):
        q = rng.randrange(1, 10**6)
        p = rng.randrange(q + 1, 2 * 10**6)
        x = Fraction(p, q)
        if x <= 1:
            continue
        word = cf_expand_even(x)
        assert len(word) % 2 == 0
        assert all(c >= 1 for c in word)
        assert cf_eval(word) == x


@given(st.fractions(min_value=Fraction(1), max_value=Fraction(10**6), max_denominator=10**6))
def test_round_trip_hypothesis(x):
    if x <= 1:
        return
    assert cf_eval(cf_expand_even(x)) == x


# ============================================================
# convergent matrices
# ============================================================

def test_convergent_matrix_examples():
    assert convergent_matrix((2, 2)) == Mat2(5, 2, 2, 1)
    assert convergent_matrix((1, 1)) == Mat2(2, 1, 1, 1)
    assert convergent_matrix((2, 2, 1, 1)) == Mat2(12, 7, 5, 3)
    with pytest.raises(DomainError):
        convergent_matrix(())


def test_convergent_matrix_columns_are_convergents():
    m = convergent_matrix((2, 2, 1, 1))
    assert Fraction(m.e11, m.e21) == cf_eval((2, 2, 1, 1))
    assert Fraction(m.e12, m.e22) == cf_eval((2, 2, 1))


@given(any_words)
def test_determinant_parity(w):
    assert convergent_matrix(w).det() == (-1) ** len(w)


@given(any_words, any_words)
def test_concatenation_homomorphism(u, v):
    assert convergent_matrix(u + v) == convergent_matrix(u) @ convergent_matrix(v)


@given(even_words)
def test_eval_agrees_with_matrix_columns(w):
    m = convergent_matrix(w)
    assert cf_eval(w) == Fraction(m.e11, m.e21)


def test_mat2_algebra():
    a = Mat2(1, 2, 3, 4)
    assert a @ Mat2.identity() == a
    assert a.transpose() == Mat2(1, 3, 2, 4)
    assert a.det() == -2
    assert a.trace() == 5
    assert a ** 0 == Mat2.identity()
    assert a ** 3 == a @ a @ a
    with pytest.raises(DomainError):
        a ** -1


@pytest.mark.parametrize("n", [-1, True, 2.0])
def test_mat2_power_refuses_what_is_no_int_at_least_0(n):
    with pytest.raises(DomainError, match=f"^matrix power must be an int >= 0, got {n}$"):
        Mat2(1, 2, 3, 4) ** n


IDENTITY = (1, 0, 0, 1)


def _random_pairs(count: int) -> list:
    """Pairs of entry tuples of up to 100 bits, negative entries included."""
    rng = random.Random(31)
    return [tuple(tuple(rng.randrange(-2**100, 2**100) for _ in range(4)) for _ in range(2))
            for _ in range(count)]


def test_mul_is_the_sympy_matrix_product():
    # _mul holds the package's one 2x2 product formula; sympy is its oracle.
    sympy = pytest.importorskip("sympy")
    for a, b in _random_pairs(20) + [((-1, -2, -3, -4), (-5, -6, -7, -8))]:
        product = sympy.Matrix(2, 2, list(a)) * sympy.Matrix(2, 2, list(b))
        assert _mul(a, b) == tuple(int(e) for e in product)


@pytest.mark.parametrize("a,b,product", [
    ((1, 2, 3, 4), (5, 6, 7, 8), (19, 22, 43, 50)),
    ((5, 6, 7, 8), (1, 2, 3, 4), (23, 34, 31, 46)),
    ((0, -1, 1, 0), (1, 1, 0, 1), (0, -1, 1, 1)),
    ((1, 1, 0, 1), (0, -1, 1, 0), (1, -1, 1, 0)),
    (IDENTITY, (2, 1, 1, 1), (2, 1, 1, 1)),
])
def test_mul_multiplies_in_the_order_given(a, b, product):
    # Worked by hand: (e11 e12 / e21 e22) rows times columns, a on the left.
    assert _mul(a, b) == product


def test_mul_is_mat2_matmul():
    for a, b in _random_pairs(20):
        assert Mat2(*a) @ Mat2(*b) == Mat2(*_mul(a, b))


def test_mat2_unpacks_as_its_entry_tuple():
    assert tuple(Mat2(1, 2, 3, 4)) == (1, 2, 3, 4)
    e11, e12, e21, e22 = Mat2(5, 6, 7, 8)
    assert (e11, e12, e21, e22) == (5, 6, 7, 8)


def test_pow_is_the_fold_of_mul():
    rng = random.Random(31)
    bases = [IDENTITY, (1, 1, 0, 1), (2, 1, 1, 1), (0, -1, 1, 0), (-3, 7, 2, -5)]
    bases += [tuple(rng.randrange(-2**100, 2**100) for _ in range(4)) for _ in range(3)]
    for a in bases:
        for n in range(71):
            assert _pow(a, n) == reduce(_mul, [a] * n, IDENTITY)
        assert Mat2(*a) ** 70 == Mat2(*_pow(a, 70))


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # a^(2^k) is k squarings and no other product; a square past the top bit
    # would be thrown away.  The quarter turn's powers stay small at any n.
    mul, squares = _mul, []

    def counted(a, b):
        squares.append(a is b)
        return mul(a, b)

    monkeypatch.setattr(rational, "_mul", counted)
    turns = [IDENTITY, (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0)]
    for n in [*range(40), *(2**k for k in range(6, 70, 7)), 2**70 - 1]:
        squares.clear()
        assert _pow((0, -1, 1, 0), n) == turns[n % 4]
        k = max(n.bit_length() - 1, 0)
        assert squares.count(True) == k
        assert squares.count(False) == max(bin(n).count("1") - 1, 0)
        if n == 2**k:
            assert squares == [True] * k


def _divmod_quotients(p: int, q: int) -> list:
    """Euclid by divmod alone: the reference partial_quotients must match."""
    quotients = []
    while q:
        a, r = divmod(p, q)
        quotients.append(a)
        p, q = q, r
    return quotients


@given(st.one_of(
    st.tuples(st.integers(-(2**80), -1), st.integers(1, 2**80)),
    st.integers(1, 2**80).flatmap(lambda q: st.tuples(st.integers(-q, q - 1), st.just(q))),
))
def test_partial_quotients_match_divmod_alone(pair):
    """Negative p, and p < q, where the first quotient is <= 0."""
    assert partial_quotients(*pair) == _divmod_quotients(*pair)


@pytest.mark.parametrize("q", [0, -1, -7, -(2**80)])
def test_partial_quotients_refuse_a_q_that_is_not_positive(q):
    with pytest.raises(PreconditionError, match=f"need q > 0, got {q}"):
        partial_quotients(3, q)


def test_partial_quotients_match_divmod_alone_on_the_window_targets():
    # The words suite expands each node's 2 + p/q; depth 10 has 2,047 of them.
    for node in Window(10).markov:
        target = 2 + node.value
        assert (partial_quotients(target.numerator, target.denominator)
                == _divmod_quotients(target.numerator, target.denominator))


@given(st.integers(-(2**80), 2**80), st.integers(1, 2**80))
def test_partial_quotients_match_a_fraction_loop(p, q):
    x, quotients = Fraction(p, q), []
    while True:
        a = x.numerator // x.denominator
        quotients.append(a)
        if x == a:
            break
        x = 1 / (x - a)
    assert partial_quotients(p, q) == quotients
