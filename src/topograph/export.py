"""Tree exports: build any of the six value trees and serialize them.

All exports are deterministic: breadth-first node order, canonical JSON
(sorted keys, fixed separators, trailing newline), and fixed templates for
DOT and CSV.  Big integers are serialized as decimal strings so nothing
downstream has to parse arbitrary-precision numbers.

Each tree is one entry of KINDS: its seed pair and combine rule, and the
codecs of its values.  The CLI, the exports and verify all read it; the
verify window reads the irrational tree's convergent matrices before the lift.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Optional

from .cftree import (
    WORD_SEED_LEFT,
    WORD_SEED_RIGHT,
    QuadraticIrrational,
    fixed_point,
    format_qi,
    make_qi,
)
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
    make_fraction,
    parse_cf_word,
)
from .tree import HARD_DEPTH_CAP, Node, enumerate_tree, format_path


@dataclass(frozen=True)
class Kind:
    """One value tree: how it grows and how its values serialize.

    seeds(a) is the seed pair and combine fills in every node from its two
    parent regions.  text renders a value for CSV cells and DOT labels;
    encode and decode are the JSON codec.  lift, when set, maps every region
    of the enumerated tree, seeds included, to the exported value (a fixed
    point for irrational).  Only a kind that takes_a reads the parameter a,
    and only its exports record it.
    """

    seeds: Callable
    combine: Callable
    text: Callable
    encode: Callable
    decode: Callable
    lift: Optional[Callable] = None
    takes_a: bool = False


def _decode_fraction(obj) -> Fraction:
    # Strictly 'p/q': unlike parse_fraction, a bare integer is malformed here.
    num, _, den = obj.partition("/")
    return make_fraction(int(num), int(den))


def _decode_qi(obj) -> QuadraticIrrational:
    # Only make_qi's canonical tuples, which are all that fixed_point returns.
    x = QuadraticIrrational(*(int(obj[f]) for f in "PBQD"))
    if make_qi(x.P, x.B, x.Q, x.D) != x:
        raise ValueError(f"{x} is not in lowest terms")
    return x


def _decode_mat2(obj) -> Mat2:
    (e11, e12), (e21, e22) = obj
    return Mat2(int(e11), int(e12), int(e21), int(e22))


KINDS = {
    "farey": Kind(lambda a: (Fraction(0), Fraction(1)), farey_mediant,
                  format_fraction, format_fraction, _decode_fraction),
    "markov": Kind(lambda a: (MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT), springborn_mediant,
                   format_fraction, format_fraction, _decode_fraction),
    "triple": Kind(lambda a: (1, 2), markov_child, str, str, int),
    "cohn": Kind(lambda a: (cohn_A(a).m, cohn_B(a).m), Mat2.__matmul__, format_mat2,
                 lambda m: [[str(m.e11), str(m.e12)], [str(m.e21), str(m.e22)]], _decode_mat2,
                 takes_a=True),
    # Plain concatenation: the seeds are even words of positive ints and
    # concatenation keeps them so; cf_concat's checks are for callers' words.
    "cf": Kind(lambda a: (WORD_SEED_LEFT, WORD_SEED_RIGHT), add,
               format_cf_word, format_cf_word, parse_cf_word),
    # The cf tree's convergent matrices, by the concatenation rule: a word's
    # matrix is the product of its parents', and its fixed point the word's
    # periodization.
    "irrational": Kind(lambda a: (convergent_matrix(WORD_SEED_LEFT),
                                  convergent_matrix(WORD_SEED_RIGHT)),
                       Mat2.__matmul__, format_qi,
                       lambda x: {f: str(getattr(x, f)) for f in "PBQD"},
                       _decode_qi,
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


def build_export(kind: str, depth: int, a: int = 0) -> TreeExport:
    """Enumerate a tree to the given depth (at most HARD_DEPTH_CAP).

    A kind with a lift is enumerated with its seeds and combine, then every
    region of every node is lifted.
    """
    spec = _kind(kind)
    seed_left, seed_right = spec.seeds(a)
    nodes = tuple(enumerate_tree(seed_left, seed_right, spec.combine, depth))
    lift = spec.lift
    if lift is not None:
        nodes = tuple(Node(n.path, lift(n.left), lift(n.right), lift(n.value)) for n in nodes)
    return TreeExport(kind, depth, a if spec.takes_a else None, nodes)


# ============================================================
# formats
# ============================================================

def to_json(export: TreeExport) -> str:
    encode = _kind(export.kind).encode
    payload = {
        "kind": export.kind,
        "depth": export.depth,
        "nodes": [
            {
                "path": format_path(n.path),
                "value": encode(n.value),
                "left": encode(n.left),
                "right": encode(n.right),
            }
            for n in export.nodes
        ],
    }
    if export.a is not None:
        payload["a"] = export.a
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def from_json(text: str) -> TreeExport:
    """Load what to_json writes: the whole breadth-first tree of its depth.

    The depth, the node count and the Cohn parameter are checked before any
    value is decoded; |a| >= HARD_A_CAP raises DepthLimitError, as in
    build_export, and anything else malformed DomainError.
    """
    try:
        payload = json.loads(text)
        kind = payload["kind"]
        spec = _kind(kind)
        depth, a, nodes = payload["depth"], payload.get("a"), payload["nodes"]
        # A JSON true is a bool, not an int.
        if type(depth) is not int or not 0 <= depth <= HARD_DEPTH_CAP:
            raise ValueError(f"depth must be an integer in [0, {HARD_DEPTH_CAP}], got {depth!r}")
        if (type(a) is int) != spec.takes_a:
            raise TypeError(f"kind {kind!r} takes {'an integer' if spec.takes_a else 'no'} a, got {a!r}")
        if spec.takes_a:
            check_cohn_parameter(a)
        if len(nodes) != 2 ** (depth + 1) - 1:
            raise ValueError(f"{len(nodes)} nodes do not fill a tree of depth {depth}")
        paths = [n.path for n in enumerate_tree(None, None, lambda x, y: None, depth)]
        if [n["path"] for n in nodes] != [format_path(path) for path in paths]:
            raise ValueError("node paths are not the breadth-first paths of the tree")
        return TreeExport(kind, depth, a, tuple(
            Node(path, spec.decode(n["left"]), spec.decode(n["right"]), spec.decode(n["value"]))
            for path, n in zip(paths, nodes)))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed tree export: {exc}") from exc


def to_csv(export: TreeExport) -> str:
    text = _kind(export.kind).text
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "value", "left", "right"])
    for n in export.nodes:
        writer.writerow([format_path(n.path), text(n.value), text(n.left), text(n.right)])
    return buf.getvalue()


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
