"""Cohn matrices and the index identity."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topograph import (
    CohnMatrix,
    DomainError,
    InvariantError,
    Mat2,
    cohn_A,
    cohn_B,
    cohn_at,
    cohn_index,
    descend,
    enumerate_tree,
    markov_fraction,
    mirror,
    run_suites,
    trace_map,
)
from topograph import cohn


def matmul(x, y):
    return x @ y


def cohn_tree(a, depth):
    return list(enumerate_tree(cohn_A(a).m, cohn_B(a).m, matmul, depth))


# ============================================================
# the seed families
# ============================================================

def test_seed_matrices():
    assert cohn_A(0).m == Mat2(0, 1, -1, 3)
    assert cohn_B(0).m == Mat2(1, 2, 2, 5)
    assert cohn_A(1).m == Mat2(1, 1, 1, 2)
    assert cohn_B(1).m == Mat2(3, 2, 4, 3)
    assert cohn_A(2).m == Mat2(2, 1, 1, 1)
    assert cohn_B(2).m == Mat2(5, 2, 2, 1)


@given(st.integers(-50, 50))
def test_seed_invariants_hold_for_any_parameter(a):
    for seed in (cohn_A(a), cohn_B(a)):
        assert seed.m.det() == 1
        assert seed.m.trace() == 3 * seed.m.e12


def test_constructor_rejects_non_cohn_matrices():
    with pytest.raises(InvariantError):
        CohnMatrix(Mat2(1, 0, 0, 1), 0)  # trace 2 != 3 * 0
    with pytest.raises(InvariantError):
        CohnMatrix(Mat2(2, 2, 2, 4), 0)  # determinant 4


# ============================================================
# positions in the tree
# ============================================================

def test_cohn_at_examples():
    assert cohn_at(Fraction(1, 2), 1).m == Mat2(7, 5, 11, 8)
    assert cohn_at(Fraction(1, 3), 1).m == Mat2(18, 13, 29, 21)
    assert cohn_at(Fraction(2, 3), 1).m == Mat2(41, 29, 65, 46)
    assert cohn_at(Fraction(1, 2), 0).m == Mat2(2, 5, 5, 13)
    assert cohn_at(Fraction(0), 2).m == cohn_A(2).m
    assert cohn_at(Fraction(1), 2).m == cohn_B(2).m


def test_cohn_at_domain():
    with pytest.raises(DomainError):
        cohn_at(Fraction(3, 2), 0)


@pytest.mark.parametrize("t,want", [
    (Fraction(0), cohn_A(2).m),
    (Fraction(3, 11), descend(cohn_A(2).m, cohn_B(2).m, matmul, "LLRL").value),
    (Fraction(1), cohn_B(2).m),
])
def test_cohn_at_checks_a_once_and_builds_one_cohn_matrix(monkeypatch, t, want):
    checked, built = [], []
    real_check, real_post_init = cohn.check_cohn_parameter, CohnMatrix.__post_init__
    monkeypatch.setattr(cohn, "check_cohn_parameter", lambda a: checked.append(a) or real_check(a))
    monkeypatch.setattr(CohnMatrix, "__post_init__",
                        lambda self: built.append(self) or real_post_init(self))
    c = cohn_at(t, 2)
    assert checked == [2]
    assert built == [c] and type(c) is CohnMatrix and c.a == 2
    assert c.m == want


def test_cohn_at_refuses_a_before_t():
    with pytest.raises(DomainError, match="Cohn parameter must be an int, got True"):
        cohn_at(Fraction(3, 2), True)


def test_index_examples():
    assert cohn_index(cohn_A(0)) == Fraction(0, 1)
    assert cohn_index(cohn_B(0)) == Fraction(1, 2)
    assert cohn_index(cohn_at(Fraction(1, 2), 1)) == Fraction(7, 5)
    assert cohn_index(cohn_B(2)) == Fraction(5, 2)


def test_index_rejects_zero_corner():
    with pytest.raises(DomainError):
        cohn_index(Mat2.identity())


def test_trace_map_examples():
    assert trace_map(cohn_at(Fraction(1, 2), 1)) == 5
    assert trace_map(cohn_at(Fraction(2, 3), 1)) == 29
    assert trace_map(cohn_at(Fraction(1, 3), 1)) == 13


def test_trace_map_rejects_non_multiples():
    with pytest.raises(InvariantError):
        trace_map(Mat2(1, 1, 0, 1))  # trace 2
    with pytest.raises(InvariantError):
        trace_map(Mat2(2, 3, 1, 4))  # trace/3 = 2 but e12 = 3


def test_products_inherit_the_invariants():
    for a in (-2, -1, 0, 1, 2, 3):
        for node in cohn_tree(a, 6):
            m = node.value
            assert m.det() == 1
            assert m.trace() == 3 * m.e12
            assert trace_map(m) == m.e12


def test_index_recovers_markov_fractions():
    for a in (-1, 0, 1, 2):
        for node in cohn_tree(a, 6):
            t = _coordinate_of(node.path)
            assert cohn_index(node.value) == a + markov_fraction(t)


def _coordinate_of(path):
    from topograph import farey_mediant

    return descend(Fraction(0), Fraction(1), farey_mediant, path).value


def test_top_row_is_markov_fraction_shifted():
    for a in (0, 1, 3):
        for node in cohn_tree(a, 6):
            mf = markov_fraction(_coordinate_of(node.path))
            p, q = mf.numerator, mf.denominator
            assert node.value.e11 == a * q + p
            assert node.value.e12 == q


def test_bottom_row_closed_forms_at_zero():
    for node in cohn_tree(0, 8):
        m = node.value
        p, q = m.e11, m.e12
        assert m.e22 == 3 * q - p
        assert m.e21 * q == 3 * p * q - p * p - 1


# ============================================================
# frozen window values and mirror symmetry
# ============================================================

FAMILY_ONE = {
    "": Mat2(7, 5, 11, 8),
    "L": Mat2(18, 13, 29, 21),
    "R": Mat2(41, 29, 65, 46),
}

FAMILY_TWO = {
    "": Mat2(12, 5, 7, 3),
    "L": Mat2(31, 13, 19, 8),
    "R": Mat2(70, 29, 41, 17),
}

FAMILY_TWO_MIRRORED = {
    "": Mat2(12, 7, 5, 3),
    "L": Mat2(70, 41, 29, 17),
    "R": Mat2(31, 19, 13, 8),
}


def test_family_one_window():
    assert cohn_A(1).m == Mat2(1, 1, 1, 2)
    assert cohn_B(1).m == Mat2(3, 2, 4, 3)
    for path, matrix in FAMILY_ONE.items():
        assert descend(cohn_A(1).m, cohn_B(1).m, matmul, path).value == matrix


def test_family_two_window():
    for path, matrix in FAMILY_TWO.items():
        assert descend(cohn_A(2).m, cohn_B(2).m, matmul, path).value == matrix


def test_mirrored_window_is_the_transpose_tree():
    # swapping the seeds (transposed) mirrors the whole tree transposed
    seeds = (cohn_B(2).m.transpose(), cohn_A(2).m.transpose())
    for path, matrix in FAMILY_TWO_MIRRORED.items():
        assert descend(seeds[0], seeds[1], matmul, path).value == matrix
        assert matrix == FAMILY_TWO[mirror(path)].transpose()


def test_mirror_transpose_identity_at_depth():
    seeds = (cohn_B(2).m.transpose(), cohn_A(2).m.transpose())
    mirrored = {n.path: n.value for n in enumerate_tree(seeds[0], seeds[1], matmul, 6)}
    for node in cohn_tree(2, 6):
        assert mirrored[mirror(node.path)] == node.value.transpose()


# ============================================================
# the sweep
# ============================================================

def test_sweep_counts():
    report = run_suites(["index"], 2, (0,))[0]
    assert report.ok
    assert report.checks["bottom-row"] == 7
    assert report.checks["index"] == 7
    assert report.checks["monotone"] == 1


def test_sweep_several_parameters():
    report = run_suites(["index"], 6, (-2, -1, 0, 1, 2, 3))[0]
    assert report.ok
    assert report.failures == 0
    assert report.checks["bottom-row"] == 127  # only counted for a = 0
