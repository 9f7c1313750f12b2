"""Differential tests: each fast point-query route against its reference walk.

The fast routes work run by run (locate_runs, descend_runs) or with plain
ints (the convergent recurrence); the references are the step-by-step
descend with each tree's own combine rule, and a Mat2 fold per letter.
The Cohn matrix at t is also checked against a third route, the word's
convergent matrix through the paper's theorem (see cohn).
"""

from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topograph import (
    DomainError,
    Mat2,
    cf_concat,
    cf_eval,
    cohn_A,
    cohn_at,
    cohn_B,
    convergent_matrix,
    descend,
    farey_mediant,
    locate,
    locate_runs,
    markov_cf,
    markov_fraction,
    mirror,
    periodic_value,
    springborn_mediant,
    value_at,
)
from topograph.markov import MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT
from topograph.verify import DEFAULT_A_VALUES

QMAX = 3000
LONG_RUN_N = (2, 3, 4, 7, 64, 500, QMAX)


def coordinates_up_to(qmax):
    return st.integers(2, qmax).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q)))


coordinates = coordinates_up_to(QMAX)
long_runs = pytest.mark.parametrize(
    "t", [Fraction(k, n) for n in LONG_RUN_N for k in (1, n - 1)], ids=str)
letters = st.integers(1, 9)
words = st.lists(letters, min_size=1, max_size=12).map(tuple)
# Small enough that sympy's sqrt factors the discriminant quickly.
small_letters = st.integers(1, 5)
small_even_words = st.lists(st.tuples(small_letters, small_letters), min_size=1, max_size=4).map(
    lambda pairs: sum(pairs, ()))


def check_locate(t):
    runs = locate_runs(t)
    assert all(k > 0 for _, k in runs)
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
    path = locate(t)
    assert path == "".join(step * k for step, k in runs)
    assert descend(Fraction(0), Fraction(1), farey_mediant, path).value == t


def check_cohn(t):
    path = locate(t)
    for a in DEFAULT_A_VALUES:
        walked = descend(cohn_A(a).m, cohn_B(a).m, Mat2.__matmul__, path).value
        assert cohn_at(t, a).m == walked


def check_markov_fraction(t):
    walked = descend(MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT, springborn_mediant, locate(t))
    assert markov_fraction(t) == walked.value


def check_markov_cf(t):
    walked = descend((2, 2), (1, 1), cf_concat, mirror(locate(t)))
    assert markov_cf(t) == walked.value


ROUTES = (check_locate, check_cohn, check_markov_fraction, check_markov_cf)


@pytest.mark.parametrize("check", ROUTES)
@settings(max_examples=60, deadline=None)
@given(coordinates)
def test_route_matches_walk(check, t):
    check(t)


@pytest.mark.parametrize("check", ROUTES)
@long_runs
def test_route_matches_walk_on_long_runs(check, t):
    check(t)


def test_value_at_boundaries_are_the_seeds():
    assert value_at(Fraction(0), "x", "y", add, mul) == "x"
    assert value_at(1, "x", "y", add, mul) == "y"
    assert value_at(Fraction(1, 2), "x", "y", add, mul) == "xy"
    for a in DEFAULT_A_VALUES:
        assert cohn_at(Fraction(0), a).m == cohn_A(a).m
        assert cohn_at(Fraction(1), a).m == cohn_B(a).m
    # The word tree is mirrored: (1,1) sits at t = 0 and (2,2) at t = 1.
    assert markov_cf(Fraction(0)) == (1, 1)
    assert markov_cf(Fraction(1)) == (2, 2)


@pytest.mark.parametrize("t", [Fraction(-1, 3), Fraction(4, 3), Fraction(-1), Fraction(2)],
                         ids=str)
def test_coordinates_outside_the_unit_interval_are_refused(t):
    message = rf"^coordinate must lie in \[0, 1\], got {t}$"
    for query in (lambda: value_at(t, "x", "y", add, mul), lambda: cohn_at(t, 1),
                  lambda: markov_cf(t)):
        with pytest.raises(DomainError, match=message):
            query()


def test_long_run_shapes():
    assert locate_runs(Fraction(1, QMAX)) == [("L", QMAX - 2)]
    assert locate_runs(Fraction(QMAX - 1, QMAX)) == [("R", QMAX - 2)]
    assert locate_runs(Fraction(1, 2)) == []


def mat2_fold(word):
    return reduce(Mat2.__matmul__, (Mat2(c, 1, 1, 0) for c in word), Mat2.identity())


def value_from_the_right(word):
    value = Fraction(word[-1])
    for c in reversed(word[:-1]):
        value = c + 1 / value
    return value


@given(words)
def test_convergent_matrix_matches_mat2_fold(word):
    assert convergent_matrix(word) == mat2_fold(word)
    assert cf_eval(word) == value_from_the_right(word)


@long_runs
def test_convergent_matrix_matches_mat2_fold_on_markov_words(t):
    word = markov_cf(t)
    assert convergent_matrix(word) == mat2_fold(word)


# The paper's theorem as one matrix identity: the Cohn matrix at t is the
# transposed convergent matrix of the word at t, conjugated by Q_a.  The
# markov and triple exports read the a = 0 Cohn tree on the strength of it.
cohn_parameters = st.one_of(st.integers(-3, 3), st.just(2**63 - 5))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 199).flatmap(lambda q: st.integers(0, q).map(lambda p: Fraction(p, q))),
       cohn_parameters)
def test_cohn_matrix_is_the_conjugated_transposed_convergent_matrix(t, a):
    q_a, q_a_inverse = Mat2(1, 0, 2 - a, 1), Mat2(1, 0, a - 2, 1)
    assert q_a @ q_a_inverse == Mat2.identity()
    m = convergent_matrix(markov_cf(t))
    assert cohn_at(t, a).m == q_a @ m.transpose() @ q_a_inverse


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=25, deadline=None)
@given(word=st.one_of(small_even_words, coordinates_up_to(8).map(markov_cf)))
def test_periodic_value_matches_sympy(sympy, word):
    x = periodic_value(word)
    ours = (sympy.Integer(x.P) + x.B * sympy.sqrt(x.D)) / x.Q
    theirs = sympy.continued_fraction_reduce([list(word)])
    assert sympy.expand(ours) == sympy.expand(sympy.radsimp(theirs))
