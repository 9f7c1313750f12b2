"""Differential tests: the product-tree convergent kernel against per-letter references.

_convergents runs words of up to _PLAIN_MAX letters through the per-letter
recurrence and cuts longer ones into _CHUNK-letter chunks whose matrices it
multiplies pairwise, so the cases that matter are lengths on both sides of
_PLAIN_MAX, words ending inside a chunk, odd chunk counts at some level of
the tree, repeated chunks (Markov words) and long words.  The references
multiply one letter at a time: a Mat2 fold on short words and the plain
recurrence, written out here, on long ones.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topograph import (
    Mat2,
    cf_eval,
    convergent_matrix,
    left_companion,
    make_qi,
    markov_cf,
    periodic_value,
)
from topograph.rational import _PLAIN_MAX

# Words longer than this are checked against the plain recurrence only; the
# Mat2 fold allocates a dataclass per letter.
FOLD_MAX = 200
# Lengths around the chunk boundaries, as they are and past _PLAIN_MAX, where
# they give 17 to 21 chunks: odd counts at one or more levels of the tree.
CHUNK_OFFSETS = (1, 15, 16, 17, 31, 32, 33, 48, 49, 80)
EXPLICIT_LENGTHS = CHUNK_OFFSETS + (_PLAIN_MAX,) + tuple(_PLAIN_MAX + n for n in CHUNK_OFFSETS)
MARKOV_Q = (2, 3, 15, 16, 17, 33, 1000, 2**12 + 1, 2**14)


def mat2_fold(word):
    return reduce(Mat2.__matmul__, (Mat2(c, 1, 1, 0) for c in word), Mat2.identity())


def recurrence(word):
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for c in word:
        p, p_prev = c * p + p_prev, p
        q, q_prev = c * q + q_prev, q
    return Mat2(p, p_prev, q, q_prev)


def reference(word):
    return mat2_fold(word) if len(word) <= FOLD_MAX else recurrence(word)


def periodic_reference(m):
    """The fixed point of x -> (p_k x + p_{k-1}) / (q_k x + q_{k-1}) above 1."""
    return make_qi(m.e11 - m.e22, 1, 2 * m.e21, (m.e22 - m.e11) ** 2 + 4 * m.e21 * m.e12)


def check_word(word):
    want = reference(word)
    assert convergent_matrix(word) == want
    assert cf_eval(word) == Fraction(want.e11, want.e21)
    even = word if len(word) % 2 == 0 else word + (1,)
    assert periodic_value(even) == periodic_reference(reference(even))


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=100).map(tuple))
def test_kernel_matches_per_letter_fold(word):
    check_word(word)


@given(st.integers(0, 2**32), st.integers(1, 3 * _PLAIN_MAX), st.sampled_from((2, 9, 10**6)))
def test_kernel_matches_per_letter_recurrence_on_long_words(seed, length, top):
    rng = random.Random(seed)
    check_word(tuple(rng.randint(1, top) for _ in range(length)))


@pytest.mark.parametrize("length", EXPLICIT_LENGTHS)
def test_kernel_at_chunk_boundaries(length):
    rng = random.Random(length)
    check_word(tuple(rng.randint(1, 9) for _ in range(length)))
    # Every chunk the same: each leaf after the first is a memo hit.
    check_word((1, 2) * (length // 2) + (3,) * (length % 2))


def markov_coordinates():
    rng = random.Random(2024)
    coords = [Fraction(1, q) for q in MARKOV_Q] + [Fraction(q - 1, q) for q in MARKOV_Q]
    for _ in range(6):
        q = rng.randint(2, 2**14)
        coords.append(Fraction(rng.randint(1, q - 1), q))
    return coords


@pytest.mark.parametrize("t", markov_coordinates(), ids=str)
def test_kernel_on_markov_words(t):
    check_word(markov_cf(t))


@pytest.mark.parametrize("t,m", [
    (Fraction(1, 2), 1), (Fraction(1, 2), 5), (Fraction(1, 2), 300),
    (Fraction(2, 5), 7), (Fraction(3, 7), 40), (Fraction(1, 1000), 3),
    (Fraction(0), 9), (Fraction(1), 33),
], ids=str)
def test_left_companion_matches_per_letter_reference(t, m):
    want = reference(markov_cf(t) * m)
    assert left_companion(t, m) == Fraction(want.e11, want.e21)
