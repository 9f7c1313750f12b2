"""The farey tree carries (p, q) int pairs: a differential against farey_mediant.

KINDS["farey"] grows the Stern-Brocot tree by adding pairs, which keeps
neighbours at bc - ad = 1, so it takes no gcd and checks no neighbour
condition.  rational.farey_mediant, which checks the condition and builds a
Fraction at every node, is the reference route: both walkers over the pairs
must grow its tree node for node, and the lift must give its Fractions.
"""

from fractions import Fraction

import pytest

from topograph import build_export, enumerate_tree, farey_mediant, format_fraction, from_json
from topograph import render, to_json
from topograph.export import EXPORT_FORMATS, KINDS
from topograph.tree import _preorder, _walk

FAREY = KINDS["farey"]
DEPTHS = range(11)


def _reference(depth: int) -> list:
    return list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, depth))


def _breadth_first(nodes) -> list:
    # Within a level, breadth-first order is the paths' order, L before R.
    return sorted(nodes, key=lambda node: (len(node[0]), node[0]))


@pytest.mark.parametrize("walker", [_walk, _preorder], ids=["walk", "preorder"])
@pytest.mark.parametrize("depth", DEPTHS)
def test_the_pair_tree_is_the_mediant_tree(walker, depth):
    grown = list(walker(*FAREY.seeds(0), FAREY.combine, depth))
    if walker is _preorder:
        grown = _breadth_first(grown)
    reference = _reference(depth)
    assert len(grown) == len(reference) == 2 ** (depth + 1) - 1
    for (path, *regions), node in zip(grown, reference):
        assert path == node.path
        for pair, value in zip(regions, (node.left, node.right, node.value)):
            lifted = FAREY.lift(pair)
            assert type(lifted) is Fraction and lifted == value, (path, pair)
            # Already in lowest terms: the lift's normalization changed nothing.
            assert (lifted.numerator, lifted.denominator) == pair
            assert FAREY.text(pair) == format_fraction(value)


@pytest.mark.parametrize("depth", DEPTHS)
def test_an_exports_nodes_are_the_mediant_trees_fractions(depth):
    nodes = build_export("farey", depth).nodes
    reference = _reference(depth)
    assert list(nodes) == reference
    for node in nodes:
        assert all(type(x) is Fraction for x in (node.left, node.right, node.value))


def test_a_farey_json_file_round_trips():
    tree = build_export("farey", 8)
    text = to_json(tree)
    loaded = from_json(text)
    assert loaded == tree
    assert to_json(loaded) == text
    assert loaded.nodes == tuple(_reference(8))


def _fractions_made(monkeypatch, run) -> int:
    """How many Fractions run() builds."""
    made, real = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(None)
        return real(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        run()
    return len(made)


@pytest.mark.parametrize("fmt", sorted(EXPORT_FORMATS))
def test_a_farey_export_builds_no_fraction(monkeypatch, fmt):
    # Depths 3 and 7 are below the split threshold, so every Fraction is
    # counted in this process.  Only the lift, for TreeExport.nodes, makes one.
    for depth in (3, 7):
        assert _fractions_made(monkeypatch, lambda: render(build_export("farey", depth), fmt)) == 0
        made = _fractions_made(monkeypatch, lambda: build_export("farey", depth).nodes)
        assert made == 2 ** (depth + 1) + 1
