"""Tree exports: build any of the six value trees and serialize them.

All exports are deterministic: breadth-first node order, canonical JSON
(sorted keys, fixed separators, trailing newline), and fixed templates for
DOT and CSV.  Big integers are serialized as decimal strings so nothing
downstream has to parse arbitrary-precision numbers.

A tree is fixed by its kind, depth and a, so an export is just that header
(TreeExport), checked by build_export.  Every writer, and from_json, grows
the tree from the header alone, and an export's nodes, for library callers,
are grown on first use.  A tree of N nodes holds N + 2 distinct regions, and
each node shares its two parent regions with the nodes above it, so each
region's fragment (JSON text, CSV cell or DOT label) is made once, when the
region is grown, and carried down the walk to the nodes below.  The cf
tree's words obey the concatenation rule in their text too: a word's
fragment is spliced from its parents' fragments, and only the two seeds are
formatted.  JSON is written directly from a fixed per-node template,
byte-identical to json.dumps(..., indent=1, sort_keys=True); CSV cells are
quoted as csv.writer quotes them.

The writers stream to an open binary file from the depth-first walk
(tree._preorder), which holds O(depth) regions.  Pre-order reaches each
level from left to right, which is breadth-first order within that level,
so each node's text is appended to its level's buffer, and the levels are
written out in order: the same bytes as a breadth-first walk.  A level's
buffer that passes _SPILL_BYTES moves to one temp file in TMPDIR, made
only when first needed, so memory stays flat in the file's size (on a
tmpfs TMPDIR the spill itself sits in RAM).  The file's head goes out with
the levels once the walk is done, so a walk that raises writes nothing: the
CLI opens --out only at the first write, so a failed export never creates or
truncates it.  Given no file, a writer returns its text, written to memory.

A node is a function of its two parent regions alone, so the root's two
subtrees share nothing, and from _SPLIT_MIN_NODES nodes on, given two CPUs,
a writer grows them on two cores: this process walks the root and its L
subtree, and a forked child the R subtree from (root, right seed).  Within
each level the L subtree's nodes come first, so each channel is written as
this process's part, then the child's: the same bytes.  The child writes
its part into a temp file made before the fork and sends back only where
each channel's chunks lie, so this process copies them out a chunk at a
time; the child never touches the output.  A split that fails in any way
is redone by the plain in-process walk, the rule tree._on_two_cores
states.

Each tree is one entry of KINDS: its seed pair and combine rule, and the
encoders of its values.  The CLI, the exports and verify all read it; the
verify window reads the irrational tree's convergent matrices before the lift.

from_json parses no value: it regrows the tree from the file's header as
to_json grows it, and loads a file only if every node in it is the one
to_json writes there.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import starmap
from operator import add
from typing import BinaryIO, Callable, Iterable, Iterator, Optional

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
from .tree import (
    Node,
    _on_two_cores,
    _preorder,
    _right_subtree,
    _root_and_left,
    _two_cpus,
    _walk,
    check_depth,
    format_path,
)


@dataclass(frozen=True)
class Kind:
    """One value tree: how it grows and how its values serialize.

    seeds(a) is the seed pair and combine fills in every node from its two
    parent regions, so a header (kind, depth, a) fixes the tree.  text
    renders a value for CSV cells and DOT labels, and encode for JSON;
    nothing reads a value back, since from_json regrows the tree.  lift,
    when set, maps every region of the enumerated tree, seeds included, to
    the exported value (a fixed point for irrational).  join, when set,
    makes the render of a node's value from the renders of its parent
    regions, as _splice does for words.  Only a kind that takes_a reads the
    parameter a, and only its exports record it.
    """

    seeds: Callable
    combine: Callable
    text: Callable
    encode: Callable
    lift: Optional[Callable] = None
    takes_a: bool = False
    join: Optional[Callable] = None


def _splice(s: str, t: str) -> str:
    """The render of the word x + y, from the render s of x and t of y.

    Every render of a word (text, JSON string, CSV cell, DOT label) is its
    letters between brackets, with the brackets at the ends and only quoting
    outside them.  The quoting is the same for every word of the cf tree:
    each has at least two letters, so a comma, and CSV quotes every cell.
    So s up to its last letter, a comma, and t from its first letter on is
    the render of x + y: the concatenation rule, in text.
    """
    return s[:s.rindex("]")] + "," + t[t.index("[") + 1:]


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
               format_cf_word, format_cf_word, join=_splice),
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
    """A tree export's header: kind, depth and, for a kind that takes it, a.

    These fix the tree, so the header is all a writer or loader reads.
    build_export makes a checked one, and every writer, and nodes, checks
    it again, since one may be made by hand.  nodes is the tree grown from
    it on first use.
    """

    kind: str
    depth: int
    a: Optional[int]

    @cached_property
    def nodes(self) -> tuple:
        spec = _check_header(self.kind, self.depth, self.a)
        return tuple(starmap(Node, _grow(spec, self.depth, self.a, _itself)))


def _itself(value):
    return value


def _grow(spec: Kind, depth: int, a: Optional[int], out: Callable,
          join: Optional[Callable] = None, walk: Callable = _walk) -> Iterator[tuple]:
    """spec's tree to depth, in walk's order, as (path, left, right, value) tuples.

    Each region is given as what it carries, out(lift(region)), made once,
    when the region is grown, and handed down to the nodes below it.  Given
    join, a node carries join(left's carry, right's carry) instead, and out
    runs on the two seeds alone.  The caller has checked the header.
    """
    lift = spec.lift or _itself
    seeds = spec.seeds(a)
    if join is not None:
        return walk(*[out(lift(seed)) for seed in seeds], join, depth)

    def combine(x, y):
        value = spec.combine(x[0], y[0])
        return value, out(lift(value))

    nodes = walk(*[(seed, out(lift(seed))) for seed in seeds], combine, depth)
    return ((path, left[1], right[1], value[1]) for path, left, right, value in nodes)


def _check_header(kind: str, depth: int, a: Optional[int]) -> Kind:
    """kind's entry of KINDS, once the header passes the one header rule:
    a known kind, tree.check_depth and, for a kind that takes it,
    cohn.check_cohn_parameter.  Run before anything is allocated or forked.
    """
    spec = _kind(kind)
    check_depth(depth)
    if spec.takes_a:
        check_cohn_parameter(a)
    return spec


def build_export(kind: str, depth: int, a: int = 0) -> TreeExport:
    """The header of kind's tree to depth (at most HARD_DEPTH_CAP), checked.

    The one place a header is made, by the one header rule (_check_header);
    a is None for every kind that does not take it.  Nothing is grown here.
    """
    spec = _check_header(kind, depth, a)
    return TreeExport(kind, depth, a if spec.takes_a else None)


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


# A writer holds up to about this many characters of a level's text in
# memory, then moves it to the spill file.  Characters are bytes here but
# for the irrational kind's square root signs.
_SPILL_BYTES = 1 << 18

# The smallest tree, in nodes, that a writer splits over two processes:
# with each kind and format at depths 9-13 on a 2-core VM, the split won at
# depths 12 and 13 (8,191 and 16,383 nodes), mostly by 12-43%, while at
# depth 11 farey and cf tied or lost and at depth 10 they lost by 23-76%
# (BENCH_711d063.json, "threshold").
_SPLIT_MIN_NODES = 8191


class _Spool:
    """(channel, text) pairs held by channel, to be copied out channel by channel.

    A channel's texts past _SPILL_BYTES move to the spill file, as
    (offset, size) chunks: spill if given, else one temp file in TMPDIR,
    made when first needed (so a small tree makes none).
    """

    def __init__(self, channels: int, spill: Optional[BinaryIO] = None):
        self.held = [[] for _ in range(channels)]
        self.sizes = [0] * channels
        self.chunks = [[] for _ in range(channels)]
        self.spill = spill

    def add(self, texts: Iterable[tuple]) -> None:
        for channel, text in texts:
            self.held[channel].append(text)
            self.sizes[channel] += len(text)
            if self.sizes[channel] > _SPILL_BYTES:
                self.move(channel)

    def move(self, channel: int) -> None:
        """Move the channel's held texts to the spill file."""
        if self.spill is None:
            import tempfile  # imported here: it costs about 8 ms, and most exports never spill
            self.spill = tempfile.TemporaryFile()
        data = "".join(self.held[channel]).encode()
        self.chunks[channel].append((self.spill.tell(), len(data)))
        self.spill.write(data)
        self.held[channel].clear()
        self.sizes[channel] = 0

    def write(self, out: BinaryIO, channel: int) -> None:
        for offset, size in self.chunks[channel]:
            self.spill.seek(offset)
            out.write(self.spill.read(size))
        out.write("".join(self.held[channel]).encode())

    def close(self) -> None:
        if self.spill is not None:
            self.spill.close()


def _write_by_level(out: BinaryIO, head: str, channels: int, texts: Callable, tail: str,
                    depth: int) -> None:
    """Write head, then the (channel, text) pairs texts(walk) gives for the
    nodes walk grows, one channel after another, then tail, to out.

    A pre-order walk reaches each level from left to right, so giving each
    level of each part of a file its own channel turns the walk's texts into
    the breadth-first file.  A tree of depth that has _SPLIT_MIN_NODES
    nodes or more is split, given two CPUs: this process spools the root and
    its L subtree, and a forked child the R subtree, whose texts come after
    the L subtree's in every channel.  The child spools into a temp file
    made before the fork and sends back only the (offset, size) chunks, so
    this process copies its text out a chunk at a time.  A split that fails
    in any way is closed and redone by the one in-process spool
    (tree._on_two_cores).  Nothing reaches out before every walk is done,
    so a walk that raises writes nothing, and an out that opens its file at
    the first write never opens it.
    """
    parts = []
    try:
        if 2 ** (depth + 1) - 1 >= _SPLIT_MIN_NODES and _two_cpus():
            import tempfile

            mine, theirs = _Spool(channels), _Spool(channels, tempfile.TemporaryFile())
            parts += [mine, theirs]

            def child():
                theirs.add(texts(_right_subtree))
                for channel in range(channels):
                    if theirs.held[channel]:
                        theirs.move(channel)
                theirs.spill.flush()  # the child leaves by os._exit, which flushes nothing
                return theirs.chunks

            try:
                _, theirs.chunks = _on_two_cores(lambda: mine.add(texts(_root_and_left)), child)
            except Exception:  # redone by the in-process spool below
                mine.close()
                theirs.close()
                parts.clear()
        if not parts:
            parts.append(_Spool(channels))
            parts[0].add(texts(_preorder))
        out.write(head.encode())
        for channel in range(channels):
            for part in parts:
                part.write(out, channel)
        out.write(tail.encode())
    finally:
        for part in parts:
            part.close()


def _as_text(writer: Callable, export: TreeExport) -> str:
    buffer = io.BytesIO()
    writer(export, buffer)
    return buffer.getvalue().decode()


def to_json(export: TreeExport, out: Optional[BinaryIO] = None) -> Optional[str]:
    """What json.dumps(payload, indent=1, sort_keys=True) writes, plus a newline.

    The payload is {"kind", "depth", "a" (for a kind that takes it),
    "nodes": [{"path", "value", "left", "right"}, ...]}, each value as its
    kind encodes it.  Keys come in sorted order, and a node's fields sit at
    nesting level 3.  Paths are letters L and R, or '-', so need no escaping.
    Written to the open binary file out; given none, returned as text.
    """
    if out is None:
        return _as_text(to_json, export)
    spec = _check_header(export.kind, export.depth, export.a)

    def texts(walk):
        nodes = _grow(spec, export.depth, export.a,
                      lambda value: _json_at(spec.encode(value), 3), spec.join, walk)
        return ((len(path), f'{"," if path else ""}\n  {{\n   "left": {left},\n   "path": '
                            f'"{path or "-"}",\n   "right": {right},\n   "value": {value}\n  }}')
                for path, left, right, value in nodes)

    head = f' "a": {export.a},\n' if spec.takes_a else ""
    _write_by_level(
        out, f'{{\n{head} "depth": {export.depth},\n "kind": {json.dumps(export.kind)},\n "nodes": [',
        export.depth + 1, texts, "\n ]\n}\n", export.depth)
    return None


def from_json(text: str) -> TreeExport:
    """Load what to_json writes: the whole breadth-first tree of its depth.

    The header must hold exactly the keys to_json writes, and is checked by
    build_export, so a depth above HARD_DEPTH_CAP or |a| >= HARD_A_CAP raises
    DepthLimitError; the node count is checked before any node is grown.
    Then the tree is regrown beside the file as to_json grows it, and the
    first node that is not the one to_json writes there, '2/4' for '1/2' or
    a value its parents do not combine to, raises DomainError, as does every
    other refusal.  The loaded export is the header; its nodes are grown on
    first use.
    """
    try:
        payload = json.loads(text)
        kind = payload["kind"]
        spec = _kind(kind)
        keys = {"depth", "kind", "nodes"} | ({"a"} if spec.takes_a else set())
        if payload.keys() != keys:
            raise ValueError(f"a {kind} export has the keys {sorted(keys)}, got {sorted(payload)}")
        depth, a, raw_nodes = payload["depth"], payload.get("a"), payload["nodes"]
        export = build_export(kind, depth, a)
        if len(raw_nodes) != 2 ** (depth + 1) - 1:
            raise ValueError(f"{len(raw_nodes)} nodes do not fill a tree of depth {depth}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed tree export: {exc}") from exc
    grown = _grow(spec, depth, a, spec.encode, spec.join)
    for raw, (path, left, right, value) in zip(raw_nodes, grown):
        shown = format_path(path)
        if raw != {"path": shown, "left": left, "right": right, "value": value}:
            raise DomainError(f"malformed tree export: node {shown} is not the node "
                              f"the {kind} tree grows there")
    return export


def _csv_cell(text: str) -> str:
    # Quoted as csv.writer (QUOTE_MINIMAL) quotes: a cell holding a comma, a
    # quote or a line break, with its quotes doubled.
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def to_csv(export: TreeExport, out: Optional[BinaryIO] = None) -> Optional[str]:
    """One row per node, as csv.writer writes it: path, value, left, right.

    Written to the open binary file out; given none, returned as text.
    """
    if out is None:
        return _as_text(to_csv, export)
    spec = _check_header(export.kind, export.depth, export.a)

    def texts(walk):
        nodes = _grow(spec, export.depth, export.a,
                      lambda value: _csv_cell(spec.text(value)), spec.join, walk)
        return ((len(path), f"{format_path(path)},{value},{left},{right}\n")
                for path, left, right, value in nodes)

    _write_by_level(out, "path,value,left,right\n", export.depth + 1, texts, "", export.depth)
    return None


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(export: TreeExport, out: Optional[BinaryIO] = None) -> Optional[str]:
    """Region-adjacency graph: each node's region touches both parent regions.

    Vertices are the two seed regions plus one region per node, labeled with
    the region's value; edges connect each new region to the two regions it
    was combined from.  Every vertex line comes before every edge line.
    Written to the open binary file out; given none, returned as text.
    """
    if out is None:
        return _as_text(to_dot, export)
    spec = _check_header(export.kind, export.depth, export.a)

    def texts(walk):
        nodes = _grow(spec, export.depth, export.a,
                      lambda value: _dot_quote(spec.text(value)), spec.join, walk)
        return _dot_lines(nodes, export.depth + 1)

    _write_by_level(out, f"graph {export.kind} {{\n  node [shape=plaintext];\n",
                    2 * (export.depth + 1), texts, "}\n", export.depth)
    return None


def _dot_lines(nodes: Iterator[tuple], edges: int) -> Iterator[tuple]:
    """(channel, text) of the vertex and edge lines of the seeds and every node.

    A node's vertex line goes to the channel of its level, and its two edge
    lines to channel edges + its level, past every level's vertices; the
    seeds' lines go first in the root's channels.  A node's left parent is
    the node at its path cut before the last R (the left seed if there is
    none), and its right parent the node at its path cut before the last L.
    Paths need no escaping.
    """
    for path, left, right, value in nodes:
        level = len(path)
        if not level:
            yield 0, f"  seed_L [label={left}];\n  seed_R [label={right}];\n"
            yield edges, "  seed_L -- seed_R;\n"
        shown = path or "-"
        yield level, f'  "{shown}" [label={value}];\n'
        last_r, last_l = path.rfind("R"), path.rfind("L")
        left_id = f'"{format_path(path[:last_r])}"' if last_r >= 0 else "seed_L"
        right_id = f'"{format_path(path[:last_l])}"' if last_l >= 0 else "seed_R"
        yield edges + level, f'  "{shown}" -- {left_id};\n  "{shown}" -- {right_id};\n'


EXPORT_FORMATS = {"json": to_json, "dot": to_dot, "csv": to_csv}


def render(export: TreeExport, fmt: str, out: Optional[BinaryIO] = None) -> Optional[str]:
    """export in fmt (json, dot or csv), written to the open binary file out;
    given none, returned as text."""
    writer = EXPORT_FORMATS.get(fmt)
    if writer is None:
        raise DomainError(f"unknown export format {fmt!r}; expected json, dot, or csv")
    return writer(export, out)
