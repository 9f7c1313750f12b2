"""The verify window's fast routes against the references they replace.

Window.mirrored_values("irrational") walks the product tree, which carries
each word's convergent matrix down the word tree as a product (the
concatenation rule); the reference is the convergent kernel on each word of
Window.mirrored_values("cf").  The index and monotonicity suites read the
order in t off the window's leaves; the reference is a sort of the Farey
window.  Both walks read the word trees through tree.mirrored; the reference
reverses each breadth-first level of the word tree as it is addressed.  The
fault tests plant one bad value where a suite reads it and pin the report it
gives.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

from topograph import (
    Mat2,
    cf_concat,
    cohn_A,
    cohn_B,
    convergent_matrix,
    enumerate_tree,
    farey_mediant,
    run_suites,
    verify,
)
from topograph.cli import main
from topograph.verify import Window


@pytest.mark.parametrize("depth", range(10))
def test_carried_matrices_are_the_kernel_matrices(depth):
    window = Window(depth)
    words = list(window.mirrored_values("cf"))
    products = list(window.mirrored_values("irrational"))
    assert len(products) == len(words) == 2 ** (depth + 1) - 1
    for word, m in zip(words, products):
        assert m == tuple(convergent_matrix(word)), word


def _level_reversed(seed_left, seed_right, combine, depth):
    """Values of a tree addressed by mirrored paths, in the fraction tree's order.

    Mirroring a path reverses its position within its level.
    """
    nodes = enumerate_tree(seed_left, seed_right, combine, depth)
    values = []
    for level in range(depth + 1):
        values += reversed([node.value for node in islice(nodes, 2 ** level)])
    return values


@pytest.mark.parametrize("depth", range(10))
def test_mirrored_word_trees_are_the_level_reversed_trees(depth):
    window = Window(depth)
    words = _level_reversed((2, 2), (1, 1), cf_concat, depth)
    assert list(window.mirrored_values("cf")) == words
    seeds = convergent_matrix((2, 2)), convergent_matrix((1, 1))
    products = _level_reversed(*seeds, Mat2.__matmul__, depth)
    # The window carries entry tuples; the reference walk multiplies Mat2s.
    assert list(window.mirrored_values("irrational")) == [tuple(m) for m in products]


@pytest.mark.parametrize("depth", range(10))
def test_leaves_read_the_sorted_farey_window(depth):
    # The order the index and monotonicity suites read: the first leaf's
    # left region, then each leaf's value and right region.
    farey = list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, depth))
    leaves = farey[2 ** depth - 1:]
    values = [leaves[0].left] + [x for leaf in leaves for x in (leaf.value, leaf.right)]
    assert values == sorted([Fraction(0), Fraction(1)] + [node.value for node in farey])


def _fault_in_carried_product(real, path):
    """enumerate_tree with one node of the carried product tree corrupted."""
    # The carried regions are entry tuples.
    m11, m22 = convergent_matrix((1, 1)), convergent_matrix((2, 2))
    t11, t22 = tuple(m11), tuple(m22)

    def walk(seed_left, seed_right, combine, depth):
        # The a = 2 Cohn tree has the same seeds; only its root differs.
        carried = ((seed_left, seed_right) == (t11, t22)
                   and combine(t11, t22) == tuple(m22 @ m11))
        for node in real(seed_left, seed_right, combine, depth):
            if carried and node.path == path:
                # The matrix of the word with one more (1, 1) block.
                node = replace(node, value=tuple(Mat2(*node.value) @ m11))
            yield node

    return walk


def test_fault_in_carried_product_gives_the_recorded_report(monkeypatch):
    # The carried tree is enumerated through tree.mirrored, so it is
    # addressed like the fraction tree: fraction path RL is word path LR.
    monkeypatch.setattr(verify, "enumerate_tree",
                        _fault_in_carried_product(verify.enumerate_tree, "RL"))
    report = run_suites(["periodization"], 4)[0]
    assert report.checks == {"closed-form": 30, "quadratic": 30}
    assert report.failed == {"closed-form": 1, "quadratic": 1}
    assert report.first_counterexample == {
        "check": "closed-form", "path": "RL",
        "detail": "periodization QuadraticIrrational(P=2016, B=1, Q=2240, D=11492096), "
                  "formula QuadraticIrrational(P=791, B=1, Q=866, D=1687397)"}


def _plant_seeds(monkeypatch, at_a, seed_a, seed_b):
    """Seed the Cohn tree of parameter at_a through verify's cohn_A and cohn_B."""
    for name, seed in (("cohn_A", seed_a), ("cohn_B", seed_b)):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda a, real=real, seed=seed:
                            SimpleNamespace(m=seed(real(a).m)) if a == at_a else real(a))


def _negated(m):
    return Mat2(-m.e11, -m.e12, -m.e21, -m.e22)


def test_negative_e12_keeps_the_index_and_its_order(monkeypatch):
    # Negated seeds negate every node built from an odd number of them, which
    # leaves det, trace / e12 and the index e11 / e12 as they are.  The report
    # is the one the suite gave when it compared Fractions.
    _plant_seeds(monkeypatch, 0, _negated, _negated)
    report = run_suites(["index"], 3, (0, 1))[0]
    assert report.checks == {"det": 30, "trace": 30, "top-row": 20, "index": 30,
                             "bottom-row": 5, "monotone": 2}
    assert report.failed == {"top-row": 10, "bottom-row": 10}
    assert report.first_counterexample == {"check": "top-row", "a": 0, "path": "L",
                                           "detail": "top row (-5, -13), expected (5, 13)"}


def test_swapped_seeds_fail_monotone_with_nonzero_e12(monkeypatch):
    # Swapped seeds build no Cohn tree, but every e12 stays nonzero, so
    # monotone fails on defined indexes.  The report was recorded before the
    # suite read the order off the window's leaves.
    _plant_seeds(monkeypatch, 1, lambda m: cohn_B(1).m, lambda m: cohn_A(1).m)
    report = run_suites(["index"], 3, (0, 1))[0]
    assert report.checks == {"det": 30, "trace": 15, "top-row": 15, "index": 15,
                             "bottom-row": 15, "monotone": 1}
    assert report.failed == {"trace": 15, "top-row": 15, "index": 15, "monotone": 1}
    assert report.first_counterexample == {"check": "trace", "a": 1, "path": "-",
                                           "detail": "trace = 15, e12 = 7"}


def _lower_triangular_seeds_at_a_1(monkeypatch):
    # Products of lower triangular matrices keep e12 = 0: no index is defined.
    _plant_seeds(monkeypatch, 1, lambda m: Mat2(1, 0, 1, 1), lambda m: Mat2(1, 0, 2, 1))


def test_zero_e12_fails_the_index_checks(monkeypatch):
    _lower_triangular_seeds_at_a_1(monkeypatch)
    details = []
    record = verify.VerifyReport.record

    def record_every_detail(self, name, passed, path="", detail="", **context):
        if not passed:
            details.append((name, path, detail() if callable(detail) else detail))
        return record(self, name, passed, path, detail, **context)

    monkeypatch.setattr(verify.VerifyReport, "record", record_every_detail)
    report = run_suites(["index"], 2, (0, 1))[0]
    assert report.checks == {"det": 14, "trace": 7, "top-row": 7, "index": 7,
                             "bottom-row": 7, "monotone": 1}
    assert report.failed == {"trace": 7, "top-row": 7, "index": 7, "monotone": 1}
    assert report.first_counterexample == {"check": "trace", "a": 1, "path": "-",
                                           "detail": "trace = 2, e12 = 0"}
    assert ("index", "", "index undefined (e12 = 0), expected a + 2/5") in details
    assert ("monotone", "", "indexes not strictly increasing in t") in details


def test_zero_e12_is_a_counterexample_not_an_error(monkeypatch, capsys):
    _lower_triangular_seeds_at_a_1(monkeypatch)
    code = main(["verify", "--suites", "index", "--depth", "2", "--a-values", "0,1"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert "  first counterexample: trace at - (a=1): trace = 2, e12 = 0" in out.splitlines()


def _moved_markov_node(real, value, moved):
    def mediant(lo, hi):
        got = real(lo, hi)
        return moved if got == value else got

    return mediant


@pytest.mark.parametrize("path,moved,failed,detail", [
    ("LRLR", Fraction(3, 5), {"increasing": 1, "range": 1},
     "3/5 at t=5/13 not below 75/194 at t=2/5"),
    ("LLLL", Fraction(0), {"increasing": 1},
     "0/1 at t=0/1 not below 0/1 at t=1/6"),
    ("RRRR", Fraction(1, 2), {"increasing": 1},
     "1/2 at t=5/6 not below 1/2 at t=1/1"),
], ids=["inner", "left-seed", "right-seed"])
def test_monotonicity_counterexample_names_the_farey_coordinates(
        monkeypatch, path, moved, failed, detail):
    # The reports were recorded when the window held the Farey tree; the
    # coordinates are now found by descend, for the counterexample only.
    # Each moved node is a leaf of the depth-4 window, so nothing is built
    # from it.
    value = {node.path: node.value for node in Window(4).markov}[path]
    monkeypatch.setattr(verify, "springborn_mediant",
                        _moved_markov_node(verify.springborn_mediant, value, moved))
    report = run_suites(["monotonicity"], 4)[0]
    assert report.failed == failed
    assert sum(report.checks.values()) + report.failures == 32 + 33
    assert report.first_counterexample == {"check": "increasing", "path": "-",
                                           "detail": detail}
