"""Markov fractions, triples, and the node relations."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topograph import (
    DomainError,
    MarkovTriple,
    PreconditionError,
    VerifyReport,
    enumerate_tree,
    farey_mediant,
    markov_child,
    markov_fraction,
    markov_triple_at,
    springborn_mediant,
    vieta_flip,
    vieta_walk,
)
from topograph import markov
from topograph.markov import MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT, reduction_factor
from topograph.verify import check_relations

paths = st.text(alphabet="LR", max_size=10)


def markov_nodes(depth):
    return list(enumerate_tree(MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT,
                               springborn_mediant, depth))


# ============================================================
# weighted mediant and the fraction map
# ============================================================

def test_springborn_mediant_examples():
    assert springborn_mediant(Fraction(0), Fraction(1, 2)) == Fraction(2, 5)
    assert springborn_mediant(Fraction(0), Fraction(2, 5)) == Fraction(5, 13)
    assert springborn_mediant(Fraction(2, 5), Fraction(1, 2)) == Fraction(12, 29)


def test_springborn_mediant_needs_order():
    with pytest.raises(PreconditionError):
        springborn_mediant(Fraction(1, 2), Fraction(0))
    with pytest.raises(PreconditionError):
        springborn_mediant(Fraction(1, 2), Fraction(1, 2))


def test_markov_fraction_boundaries():
    assert markov_fraction(Fraction(0)) == Fraction(0, 1)
    assert markov_fraction(Fraction(1)) == Fraction(1, 2)


def test_markov_fraction_examples():
    expected = {
        Fraction(1, 2): Fraction(2, 5),
        Fraction(1, 3): Fraction(5, 13),
        Fraction(2, 3): Fraction(12, 29),
        Fraction(3, 7): Fraction(1120, 2897),
        Fraction(5, 8): Fraction(15571, 37666),
        Fraction(2, 7): Fraction(507, 1325),
        Fraction(4, 5): Fraction(408, 985),
    }
    for t, value in expected.items():
        assert markov_fraction(t) == value


def test_markov_fraction_domain():
    for t in (Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(DomainError):
            markov_fraction(t)


def test_fraction_map_intertwines_the_mediants():
    """Image of a Farey mediant is the weighted mediant of the images."""
    farey = enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 7)
    for fnode in farey:
        lo = markov_fraction(fnode.left)
        hi = markov_fraction(fnode.right)
        assert markov_fraction(fnode.value) == springborn_mediant(lo, hi)


def test_fraction_map_monotone_and_bounded():
    values = [markov_fraction(Fraction(k, 17)) for k in range(18)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(0 <= v <= Fraction(1, 2) for v in values)


def test_reduction_factor_matches_cross_determinant():
    for node in markov_nodes(7):
        p1, q1 = node.left.numerator, node.left.denominator
        p2, q2 = node.right.numerator, node.right.denominator
        assert reduction_factor(node.left, node.right) == p2 * q1 - p1 * q2


# ============================================================
# triples
# ============================================================

def test_triple_validation():
    assert MarkovTriple(1, 2, 5).as_tuple() == (1, 2, 5)
    with pytest.raises(DomainError):
        MarkovTriple(1, 2, 6)
    with pytest.raises(DomainError):
        MarkovTriple(1, 2, 0)
    with pytest.raises(DomainError):
        MarkovTriple(-1, -2, -5)


def test_vieta_flip_examples():
    assert vieta_flip(MarkovTriple(1, 1, 2), "y").as_tuple() == (1, 5, 2)
    assert vieta_flip(MarkovTriple(1, 2, 5), "z").as_tuple() == (1, 2, 1)
    assert vieta_flip(MarkovTriple(1, 2, 5), "x").as_tuple() == (29, 2, 5)
    with pytest.raises(DomainError):
        vieta_flip(MarkovTriple(1, 2, 5), "w")


def test_vieta_flip_is_an_involution():
    t = MarkovTriple(5, 2, 29)
    for position in ("x", "y", "z"):
        assert vieta_flip(vieta_flip(t, position), position) == t


def test_triple_walk_examples():
    assert markov_triple_at("").as_tuple() == (1, 2, 5)
    assert markov_triple_at("L").as_tuple() == (1, 5, 13)
    assert markov_triple_at("R").as_tuple() == (5, 2, 29)
    assert markov_triple_at("LR").as_tuple() == (13, 5, 194)
    assert markov_triple_at("LRR").as_tuple() == (194, 5, 2897)


@given(paths)
def test_triple_walk_always_lands_on_solutions(path):
    x, y, z = markov_triple_at(path).as_tuple()
    assert x * x + y * y + z * z == 3 * x * y * z


def test_triples_are_fraction_denominators():
    """The triple at a path is the denominator triple of the fraction node."""
    for node in markov_nodes(7):
        triple = markov_triple_at(node.path)
        assert triple.as_tuple() == (
            node.left.denominator, node.right.denominator, node.value.denominator
        )


def flip_fold(path):
    """The triple at path by checked Vieta flips, one per step."""
    t = MarkovTriple(1, 2, 5)
    for step in path:
        if step == "L":
            t = MarkovTriple(t.x, t.z, vieta_flip(t, "y").y)
        else:
            t = MarkovTriple(t.z, t.y, vieta_flip(t, "x").x)
    return t


def test_vieta_walk_matches_flip_fold_on_short_paths():
    for n in range(13):
        for letters in product("LR", repeat=n):
            path = "".join(letters)
            assert vieta_walk(path) == flip_fold(path), path


@pytest.mark.parametrize("path", [
    "L" * 4094, "R" * 4094, "L" * 1000 + "R" * 3, "R" * 30 + "L" * 60 + "R",
], ids=["L*4094", "R*4094", "L*1000 R*3", "R*30 L*60 R"])
def test_vieta_walk_matches_flip_fold_on_long_runs(path):
    assert markov_triple_at(path) == vieta_walk(path) == flip_fold(path)


def test_vieta_walk_checks_the_triple_once(monkeypatch):
    built, flips = [], []

    def counting_triple(*args):
        built.append(args)
        return MarkovTriple(*args)

    monkeypatch.setattr(markov, "MarkovTriple", counting_triple)
    monkeypatch.setattr(markov, "vieta_flip", lambda *args: flips.append(args))
    for path in ("L" * 100, "R" * 100):
        built.clear()
        assert isinstance(vieta_walk(path), MarkovTriple)
        assert len(built) == 1 and flips == []


@pytest.mark.parametrize("path", [["L"], None, "LXR"], ids=["list", "None", "LXR"])
def test_triple_walks_reject_non_paths(path):
    for walk in (markov_triple_at, vieta_walk):
        with pytest.raises(DomainError, match="path must be a string over 'L'/'R'"):
            walk(path)


def test_markov_child_route_agrees():
    for node in markov_nodes(7):
        assert markov_child(node.left.denominator, node.right.denominator) \
            == node.value.denominator


def test_markov_child_rejects_strangers():
    with pytest.raises(DomainError):
        markov_child(1, 3)
    with pytest.raises(DomainError):
        markov_child(0, 1)


def test_numerators_coprime_reduced():
    for node in markov_nodes(7):
        assert gcd(node.value.numerator, node.value.denominator) == 1


def test_distinct_markov_numbers_depth_ten():
    nodes = markov_nodes(10)
    denominators = [n.value.denominator for n in nodes]
    assert len(set(denominators)) == len(denominators) == 2 ** 11 - 1


# ============================================================
# node relations
# ============================================================

# (left parent, right parent, node, right child, left child)
ROOT_RELATIONS = (Fraction(0, 1), Fraction(1, 2), Fraction(2, 5),
                  Fraction(12, 29), Fraction(5, 13))


def relations_report(fractions, path=""):
    report = VerifyReport("relations", 0)
    check_relations(report, path, *fractions)
    return report


def test_relations_pass_at_root():
    report = relations_report(ROOT_RELATIONS)
    assert report.ok
    assert list(report.checks) == [
        "cross-left", "cross-right", "mediant-divisor", "flip-left", "flip-right",
    ]


def test_relations_catch_a_corrupted_node():
    bad = (Fraction(0, 1), Fraction(1, 2), Fraction(3, 7),
           Fraction(12, 29), Fraction(5, 13))
    report = relations_report(bad)
    assert not report.ok
    assert "cross-right" in list(report.failed)
    # inexact division shows up as a failed check, not an exception
    assert "mediant-divisor" in list(report.failed)


def test_relations_catch_swapped_children():
    swapped = (Fraction(0, 1), Fraction(1, 2), Fraction(2, 5),
               Fraction(5, 13), Fraction(12, 29))
    assert set(relations_report(swapped).failed) == {"flip-left", "flip-right"}


def test_relations_hold_at_every_interior_node():
    nodes = {n.path: n for n in markov_nodes(7)}
    for path, node in nodes.items():
        if len(path) > 6:
            continue
        fractions = (node.left, node.right, node.value,
                     nodes[path + "R"].value, nodes[path + "L"].value)
        assert relations_report(fractions, path).ok, path
