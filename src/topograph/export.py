"""Tree exports: build any of the six value trees and serialize them.

All exports are deterministic: breadth-first node order, canonical JSON
(sorted keys, fixed separators, trailing newline), and fixed templates for
DOT and CSV.  Big integers are serialized as decimal strings so nothing
downstream has to parse arbitrary-precision numbers.

A tree of N nodes holds N + 2 distinct regions, and each node shares its two
parent regions with the nodes above it, so every render serializes each
region once.  JSON is written directly from a fixed per-node template,
byte-identical to json.dumps(..., indent=1, sort_keys=True); CSV cells are
quoted as csv.writer quotes them.

Each tree is one entry of KINDS: its seed pair and combine rule, and the
encoders of its values.  The CLI, the exports and verify all read it; the
verify window reads the irrational tree's convergent matrices before the lift.

A tree is fixed by its kind, depth and a, so from_json parses no value: it
regrows the tree as build_export does, and loads a file only if every node in
it is the one to_json writes there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Iterator, Optional

from .cftree import WORD_SEED_LEFT, WORD_SEED_RIGHT, fixed_point, format_qi
from .cohn import check_cohn_parameter, cohn_A, cohn_B
from .errors import DomainError
from .markov import MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT, markov_child, springborn_mediant
from .rational import (
    Mat2,
    convergent_matrix,
    farey_mediant,
    format_cf_word,
    format_fraction,
    format_mat2,
)
from .tree import Node, check_depth, enumerate_tree, format_path


@dataclass(frozen=True)
class Kind:
    """One value tree: how it grows and how its values serialize.

    seeds(a) is the seed pair and combine fills in every node from its two
    parent regions.  text renders a value for CSV cells and DOT labels, and
    encode for JSON; nothing reads a value back, since from_json regrows the
    tree.  lift, when set, maps every region of the enumerated tree, seeds
    included, to the exported value (a fixed point for irrational).  Only a
    kind that takes_a reads the parameter a, and only its exports record it.
    """

    seeds: Callable
    combine: Callable
    text: Callable
    encode: Callable
    lift: Optional[Callable] = None
    takes_a: bool = False


KINDS = {
    "farey": Kind(lambda a: (Fraction(0), Fraction(1)), farey_mediant,
                  format_fraction, format_fraction),
    "markov": Kind(lambda a: (MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT), springborn_mediant,
                   format_fraction, format_fraction),
    "triple": Kind(lambda a: (1, 2), markov_child, str, str),
    "cohn": Kind(lambda a: (cohn_A(a).m, cohn_B(a).m), Mat2.__matmul__, format_mat2,
                 lambda m: [[str(m.e11), str(m.e12)], [str(m.e21), str(m.e22)]],
                 takes_a=True),
    # Plain concatenation: the seeds are even words of positive ints and
    # concatenation keeps them so; cf_concat's checks are for callers' words.
    "cf": Kind(lambda a: (WORD_SEED_LEFT, WORD_SEED_RIGHT), add,
               format_cf_word, format_cf_word),
    # The cf tree's convergent matrices, by the concatenation rule: a word's
    # matrix is the product of its parents', and its fixed point the word's
    # periodization.
    "irrational": Kind(lambda a: (convergent_matrix(WORD_SEED_LEFT),
                                  convergent_matrix(WORD_SEED_RIGHT)),
                       Mat2.__matmul__, format_qi,
                       lambda x: {f: str(getattr(x, f)) for f in "PBQD"},
                       lift=fixed_point),
}

TREE_KINDS = tuple(KINDS)


def _kind(name: str) -> Kind:
    try:
        return KINDS[name]
    except KeyError:
        raise DomainError(f"unknown tree kind {name!r}; expected one of {TREE_KINDS}") from None


@dataclass(frozen=True)
class TreeExport:
    """A finished enumeration: kind, depth, Cohn parameter (if any), nodes."""

    kind: str
    depth: int
    a: Optional[int]
    nodes: tuple


def _once(fn: Callable) -> Callable:
    """fn, called once per distinct argument object.

    enumerate_tree hands each node its parents' own value objects, so a tree
    of N nodes holds N + 2 distinct regions.  The memo is keyed by id() and
    holds each argument beside its result, so no argument is freed and no id
    reused while the memo lives.  Equal values held in distinct objects are
    each computed.
    """
    memo = {}

    def once(value):
        key = id(value)
        try:
            return memo[key][1]
        except KeyError:
            result = fn(value)
            memo[key] = (value, result)
            return result

    return once


def _grow(spec: Kind, depth: int, a: Optional[int]) -> Iterator[Node]:
    """Lazily yield spec's tree to depth (at most HARD_DEPTH_CAP), breadth-first.

    A kind with a lift is enumerated with its seeds and combine, and each
    distinct region is lifted once, so the lifted nodes share their parents'
    lifted objects as the enumerated ones do.
    """
    nodes = enumerate_tree(*spec.seeds(a), spec.combine, depth)
    if spec.lift is None:
        return nodes
    lift = _once(spec.lift)
    return (Node(n.path, lift(n.left), lift(n.right), lift(n.value)) for n in nodes)


def build_export(kind: str, depth: int, a: int = 0) -> TreeExport:
    """Enumerate a tree to the given depth (at most HARD_DEPTH_CAP)."""
    spec = _kind(kind)
    return TreeExport(kind, depth, a if spec.takes_a else None, tuple(_grow(spec, depth, a)))


# ============================================================
# formats
# ============================================================

def _json_at(obj, level: int) -> str:
    """obj as json.dumps(obj, indent=1, sort_keys=True) writes it at nesting level.

    Only the shapes an encode returns: a str, or a list or dict of them
    (nested, and never empty).
    """
    if isinstance(obj, str):
        return json.dumps(obj)
    pad = "\n" + " " * (level + 1)
    if isinstance(obj, dict):
        items = [f"{json.dumps(k)}: {_json_at(v, level + 1)}" for k, v in sorted(obj.items())]
        opening, closing = "{", "}"
    else:
        items = [_json_at(v, level + 1) for v in obj]
        opening, closing = "[", "]"
    return opening + pad + ("," + pad).join(items) + "\n" + " " * level + closing


def to_json(export: TreeExport) -> str:
    """What json.dumps(payload, indent=1, sort_keys=True) writes, plus a newline.

    The payload is {"kind", "depth", "a" (for a kind that takes it),
    "nodes": [{"path", "value", "left", "right"}, ...]}, each value as its
    kind encodes it.  Keys come in sorted order, and a node's fields sit at
    nesting level 3.  Paths are letters L and R, or '-', so need no escaping.
    """
    encode = _kind(export.kind).encode
    field = _once(lambda value: _json_at(encode(value), 3))
    head = "" if export.a is None else f' "a": {export.a},\n'
    nodes = ",\n".join([
        f'  {{\n   "left": {field(n.left)},\n   "path": "{format_path(n.path)}",'
        f'\n   "right": {field(n.right)},\n   "value": {field(n.value)}\n  }}'
        for n in export.nodes])
    return (f'{{\n{head} "depth": {export.depth},\n "kind": {json.dumps(export.kind)},\n'
            f' "nodes": [\n{nodes}\n ]\n}}\n')


def from_json(text: str) -> TreeExport:
    """Load what to_json writes: the whole breadth-first tree of its depth.

    The header must hold exactly the keys to_json writes.  The depth, the
    Cohn parameter and the node count are checked before any node is grown,
    the first two as build_export checks them, so a depth above
    HARD_DEPTH_CAP or |a| >= HARD_A_CAP raises DepthLimitError.  Then the
    tree is regrown node by node beside the file, and the first node that is
    not the one to_json writes there, '2/4' for '1/2' or a value its parents
    do not combine to, raises DomainError, as does every other refusal.  The
    loaded nodes are the regrown ones.
    """
    try:
        payload = json.loads(text)
        kind = payload["kind"]
        spec = _kind(kind)
        keys = {"depth", "kind", "nodes"} | ({"a"} if spec.takes_a else set())
        if payload.keys() != keys:
            raise ValueError(f"a {kind} export has the keys {sorted(keys)}, got {sorted(payload)}")
        depth, a, raw_nodes = payload["depth"], payload.get("a"), payload["nodes"]
        check_depth(depth)
        if spec.takes_a:
            check_cohn_parameter(a)
        if len(raw_nodes) != 2 ** (depth + 1) - 1:
            raise ValueError(f"{len(raw_nodes)} nodes do not fill a tree of depth {depth}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed tree export: {exc}") from exc
    encode = _once(spec.encode)
    nodes = []
    for raw, node in zip(raw_nodes, _grow(spec, depth, a)):
        path = format_path(node.path)
        if raw != {"path": path, "left": encode(node.left), "right": encode(node.right),
                   "value": encode(node.value)}:
            raise DomainError(f"malformed tree export: node {path} is not the node "
                              f"the {kind} tree grows there")
        nodes.append(node)
    return TreeExport(kind, depth, a, tuple(nodes))


def _csv_cell(text: str) -> str:
    # Quoted as csv.writer (QUOTE_MINIMAL) quotes: a cell holding a comma, a
    # quote or a line break, with its quotes doubled.
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def to_csv(export: TreeExport) -> str:
    text = _kind(export.kind).text
    cell = _once(lambda value: _csv_cell(text(value)))
    rows = [f"{format_path(n.path)},{cell(n.value)},{cell(n.left)},{cell(n.right)}\n"
            for n in export.nodes]
    return "path,value,left,right\n" + "".join(rows)


def to_dot(export: TreeExport) -> str:
    """Region-adjacency graph: each node's region touches both parent regions.

    Vertices are the two seed regions plus one region per node, labeled with
    the region's value; edges connect each new region to the two regions it
    was combined from.  A node's left parent is the node at its path cut
    before the last R (the left seed if there is none), and its right parent
    the node at its path cut before the last L.
    """
    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    text = _kind(export.kind).text
    root = export.nodes[0]  # its two parents are the seed regions
    lines = [f"graph {export.kind} {{", "  node [shape=plaintext];"]
    lines.append(f"  seed_L [label={quote(text(root.left))}];")
    lines.append(f"  seed_R [label={quote(text(root.right))}];")
    for n in export.nodes:
        lines.append(f"  {quote(format_path(n.path))} [label={quote(text(n.value))}];")
    lines.append("  seed_L -- seed_R;")
    for n in export.nodes:
        last_r, last_l = n.path.rfind("R"), n.path.rfind("L")
        left_id = quote(format_path(n.path[:last_r])) if last_r >= 0 else "seed_L"
        right_id = quote(format_path(n.path[:last_l])) if last_l >= 0 else "seed_R"
        me = quote(format_path(n.path))
        lines.append(f"  {me} -- {left_id};")
        lines.append(f"  {me} -- {right_id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


EXPORT_FORMATS = {"json": to_json, "dot": to_dot, "csv": to_csv}


def render(export: TreeExport, fmt: str) -> str:
    writer = EXPORT_FORMATS.get(fmt)
    if writer is None:
        raise DomainError(f"unknown export format {fmt!r}; expected json, dot, or csv")
    return writer(export)
