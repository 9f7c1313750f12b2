"""Tree exports: build any of the six value trees and serialize them.

All exports are deterministic: breadth-first node order, canonical JSON
(sorted keys, fixed separators, trailing newline), and fixed templates for
DOT and CSV.  Big integers are serialized as decimal strings so nothing
downstream has to parse arbitrary-precision numbers.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cftree import QuadraticIrrational, format_qi, periodic_value
from .cohn import cohn_A, cohn_B
from .errors import DomainError
from .markov import MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT, markov_child, springborn_mediant
from .rational import (
    Mat2,
    cf_concat,
    farey_mediant,
    format_cf_word,
    format_fraction,
    format_mat2,
    make_fraction,
    parse_cf_word,
)
from .tree import HARD_DEPTH_CAP, Node, enumerate_tree, format_path, parse_path

TREE_KINDS = ("farey", "markov", "triple", "cohn", "cf", "irrational")


@dataclass(frozen=True)
class TreeExport:
    """A finished enumeration: kind, depth, Cohn parameter (if any), nodes."""

    kind: str
    depth: int
    a: Optional[int]
    nodes: tuple


def _seeds_and_combine(kind: str, a: int):
    if kind == "farey":
        return Fraction(0), Fraction(1), farey_mediant
    if kind == "markov":
        return MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT, springborn_mediant
    if kind == "triple":
        return 1, 2, markov_child
    if kind == "cohn":
        return cohn_A(a).m, cohn_B(a).m, lambda x, y: x @ y
    if kind in ("cf", "irrational"):
        return (2, 2), (1, 1), cf_concat
    raise DomainError(f"unknown tree kind {kind!r}; expected one of {TREE_KINDS}")


def build_export(
    kind: str,
    depth: int,
    a: int = 0,
    *,
    max_depth: int = HARD_DEPTH_CAP,
) -> TreeExport:
    """Enumerate a tree to the given depth.

    The irrational tree is the word tree with every region periodized, so it
    is built by mapping the word enumeration through periodic_value.
    """
    seed_left, seed_right, combine = _seeds_and_combine(kind, a)
    nodes = tuple(
        enumerate_tree(seed_left, seed_right, combine, depth, max_depth=max_depth)
    )
    if kind == "irrational":
        cache: dict = {}

        def pv(word):
            if word not in cache:
                cache[word] = periodic_value(word)
            return cache[word]

        nodes = tuple(
            Node(n.path, pv(n.left), pv(n.right), pv(n.value)) for n in nodes
        )
    return TreeExport(kind, depth, a if kind == "cohn" else None, nodes)


# ============================================================
# value serialization
# ============================================================

def _value_to_json(kind: str, v):
    if kind in ("farey", "markov"):
        return format_fraction(v)
    if kind == "triple":
        return str(v)
    if kind == "cohn":
        return [[str(v.e11), str(v.e12)], [str(v.e21), str(v.e22)]]
    if kind == "cf":
        return format_cf_word(v)
    if kind == "irrational":
        return {"P": str(v.P), "B": str(v.B), "Q": str(v.Q), "D": str(v.D)}
    raise DomainError(f"unknown tree kind {kind!r}")


def _value_from_json(kind: str, obj):
    if kind in ("farey", "markov"):
        num, _, den = obj.partition("/")
        return make_fraction(int(num), int(den))
    if kind == "triple":
        return int(obj)
    if kind == "cohn":
        (e11, e12), (e21, e22) = obj
        return Mat2(int(e11), int(e12), int(e21), int(e22))
    if kind == "cf":
        return parse_cf_word(obj)
    if kind == "irrational":
        return QuadraticIrrational(int(obj["P"]), int(obj["B"]), int(obj["Q"]), int(obj["D"]))
    raise DomainError(f"unknown tree kind {kind!r}")


def _value_to_text(kind: str, v) -> str:
    """Single-cell rendering for CSV and DOT labels."""
    if kind in ("farey", "markov"):
        return format_fraction(v)
    if kind == "triple":
        return str(v)
    if kind == "cohn":
        return format_mat2(v)
    if kind == "cf":
        return format_cf_word(v)
    if kind == "irrational":
        return format_qi(v)
    raise DomainError(f"unknown tree kind {kind!r}")


# ============================================================
# formats
# ============================================================

def to_json(export: TreeExport) -> str:
    payload = {
        "kind": export.kind,
        "depth": export.depth,
        "nodes": [
            {
                "path": format_path(n.path),
                "value": _value_to_json(export.kind, n.value),
                "left": _value_to_json(export.kind, n.left),
                "right": _value_to_json(export.kind, n.right),
            }
            for n in export.nodes
        ],
    }
    if export.a is not None:
        payload["a"] = export.a
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def from_json(text: str) -> TreeExport:
    try:
        payload = json.loads(text)
        kind = payload["kind"]
        nodes = tuple(
            Node(
                parse_path(n["path"]),
                _value_from_json(kind, n["left"]),
                _value_from_json(kind, n["right"]),
                _value_from_json(kind, n["value"]),
            )
            for n in payload["nodes"]
        )
        return TreeExport(kind, int(payload["depth"]), payload.get("a"), nodes)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise DomainError(f"malformed tree export: {exc}") from exc


def to_csv(export: TreeExport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "value", "left", "right"])
    for n in export.nodes:
        writer.writerow([
            format_path(n.path),
            _value_to_text(export.kind, n.value),
            _value_to_text(export.kind, n.left),
            _value_to_text(export.kind, n.right),
        ])
    return buf.getvalue()


def to_dot(export: TreeExport) -> str:
    """Region-adjacency graph: each node's region touches both parent regions.

    Vertices are the two seed regions plus one region per node, labeled with
    the region's value; edges connect each new region to the two regions it
    was combined from.
    """
    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"graph {export.kind} {{", "  node [shape=plaintext];"]
    seeds = _seeds_and_combine(export.kind, export.a or 0)[:2]
    if export.kind == "irrational":
        seeds = tuple(periodic_value(s) for s in seeds)
    lines.append(f"  seed_L [label={quote(_value_to_text(export.kind, seeds[0]))}];")
    lines.append(f"  seed_R [label={quote(_value_to_text(export.kind, seeds[1]))}];")
    for n in export.nodes:
        lines.append(
            f"  {quote(format_path(n.path))} "
            f"[label={quote(_value_to_text(export.kind, n.value))}];"
        )
    lines.append("  seed_L -- seed_R;")
    for n in export.nodes:
        left_id, right_id = "seed_L", "seed_R"
        for i, step in enumerate(n.path):
            if step == "L":
                right_id = quote(format_path(n.path[:i]))
            else:
                left_id = quote(format_path(n.path[:i]))
        me = quote(format_path(n.path))
        lines.append(f"  {me} -- {left_id};")
        lines.append(f"  {me} -- {right_id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render(export: TreeExport, fmt: str) -> str:
    if fmt == "json":
        return to_json(export)
    if fmt == "dot":
        return to_dot(export)
    if fmt == "csv":
        return to_csv(export)
    raise DomainError(f"unknown export format {fmt!r}; expected json, dot, or csv")
