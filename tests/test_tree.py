"""The shared tree walker: descent, lookup, enumeration, mirroring."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topograph import (
    CombineError,
    DepthLimitError,
    DomainError,
    PreconditionError,
    cf_concat,
    descend,
    enumerate_tree,
    export,
    farey_mediant,
    format_path,
    locate,
    mirror,
    mirrored,
    parse_path,
    tree,
)

paths = st.text(alphabet="LR", max_size=12)


def farey_node(path):
    return descend(Fraction(0), Fraction(1), farey_mediant, path)


def test_descend_root():
    node = farey_node("")
    assert node.value == Fraction(1, 2)
    assert (node.left, node.right) == (Fraction(0), Fraction(1))


def test_descend_examples():
    assert farey_node("L").value == Fraction(1, 3)
    assert farey_node("R").value == Fraction(2, 3)
    assert farey_node("LRR").value == Fraction(3, 7)
    assert farey_node("LRR").left == Fraction(2, 5)
    assert farey_node("LRR").right == Fraction(1, 2)


def test_descend_rejects_junk_path():
    with pytest.raises(DomainError):
        farey_node("LRX")


def test_locate_examples():
    assert locate(Fraction(1, 2)) == ""
    assert locate(Fraction(1, 3)) == "L"
    assert locate(Fraction(3, 7)) == "LRR"
    assert locate(Fraction(5, 8)) == "RLR"


def test_locate_domain():
    for t in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(DomainError):
            locate(t)


def test_enumerate_counts_and_order():
    nodes = list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 2))
    assert [n.path for n in nodes] == ["", "L", "R", "LL", "LR", "RL", "RR"]
    assert [n.value for n in nodes] == [
        Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
        Fraction(1, 4), Fraction(2, 5), Fraction(3, 5), Fraction(3, 4),
    ]


@pytest.mark.parametrize("depth", [0, 1, 5])
def test_enumerate_node_count(depth):
    nodes = list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, depth))
    assert len(nodes) == 2 ** (depth + 1) - 1


def test_locate_inverts_descend():
    for node in enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 8):
        assert locate(node.value) == node.path


def test_parents_are_neighbors_everywhere():
    from topograph import is_farey_neighbors

    for node in enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 8):
        assert node.left < node.value < node.right
        assert is_farey_neighbors(node.left, node.right)


def test_depth_guard(monkeypatch):
    with pytest.raises(DepthLimitError):
        list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 25))
    # The cap is read at call time.
    monkeypatch.setattr(tree, "HARD_DEPTH_CAP", 5)
    with pytest.raises(DepthLimitError):
        list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 6))
    assert len(list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 5))) == 63
    with pytest.raises(PreconditionError):
        list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, -1))


def test_combine_failures_carry_path():
    def grumpy(left, right):
        if left == Fraction(1, 3):
            raise ValueError("boom")
        return farey_mediant(left, right)

    with pytest.raises(CombineError) as exc_info:
        descend(Fraction(0), Fraction(1), grumpy, "LR")
    assert exc_info.value.path == "LR"

    with pytest.raises(CombineError):
        list(enumerate_tree(Fraction(0), Fraction(1), grumpy, 3))


def _by_level(nodes) -> list:
    # A stable sort keeps each level in the order the walk reached it.
    return sorted(nodes, key=lambda node: len(node[0]))


WALKED_TREES = [(kind, 0) for kind in export.TREE_KINDS] + [("cohn", 2)]


@pytest.mark.parametrize("kind,a", WALKED_TREES, ids=[f"{k}-a{a}" for k, a in WALKED_TREES])
def test_preorder_regrouped_by_level_is_the_breadth_first_walk(kind, a):
    spec = export.KINDS[kind]
    for depth in range(11):
        walked = list(tree._walk(*spec.seeds(a), spec.combine, depth))
        assert _by_level(tree._preorder(*spec.seeds(a), spec.combine, depth)) == walked, depth


def test_preorder_is_depth_first_with_one_combine_per_node():
    calls = []

    def counted(left, right):
        calls.append((left, right))
        return farey_mediant(left, right)

    order = [node[0] for node in tree._preorder(Fraction(0), Fraction(1), counted, 3)]
    assert order == ["", "L", "LL", "LLL", "LLR", "LR", "LRL", "LRR",
                     "R", "RL", "RLL", "RLR", "RR", "RRL", "RRR"]
    assert len(calls) == 15


@pytest.mark.parametrize("bad", ["", "L", "LR", "RRL"])
def test_both_walkers_raise_at_the_failing_path(bad):
    planted = farey_node(bad).value

    def failing(left, right):
        value = farey_mediant(left, right)
        if value == planted:
            raise ValueError("planted")
        return value

    for walk in (tree._walk, tree._preorder):
        with pytest.raises(CombineError) as exc_info:
            list(walk(Fraction(0), Fraction(1), failing, 4))
        assert exc_info.value.path == bad, walk.__name__


def test_path_serialization():
    assert format_path("") == "-"
    assert format_path("LRR") == "LRR"
    assert parse_path("-") == ""
    assert parse_path(" LR ") == "LR"
    with pytest.raises(DomainError):
        parse_path("LQ")


def test_mirror_examples():
    assert mirror("") == ""
    assert mirror("LRR") == "RLL"


@given(paths)
def test_mirror_is_an_involution(path):
    assert mirror(mirror(path)) == path


@given(paths)
def test_mirror_swaps_subtrees(path):
    # the mirrored Farey tree (seeds swapped around reflection t -> 1 - t)
    # holds the reflected fraction at the mirrored path
    node = farey_node(path)
    twin = farey_node(mirror(path))
    assert twin.value == 1 - node.value


@given(paths)
def test_mirrored_tree_holds_the_value_at_the_mirrored_path(path):
    # Concatenation does not commute, so a combine that kept its argument
    # order would give other words.
    seeds = (2, 2), (1, 1)
    node = descend(*mirrored(*seeds, cf_concat), path)
    assert node.value == descend(*seeds, cf_concat, mirror(path)).value
