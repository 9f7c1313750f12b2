"""Tree exports: build any of the six value trees and serialize them.

All exports are deterministic: breadth-first node order, canonical JSON
(sorted keys, fixed separators, trailing newline), and fixed templates for
DOT and CSV.  Big integers are serialized as decimal strings so nothing
downstream has to parse arbitrary-precision numbers.

A tree is fixed by its kind, depth and a, so an export is just that header
(TreeExport), checked when it is made.  Every writer, and from_json, grows
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

From _SPLIT_MIN_NODES nodes on, by tree._split's rule, a writer walks the
root and its L subtree here and the R subtree, from (root, right seed), in
a forked child, which writes its part to a temp file and sends back only
where each channel's chunks lie.  Each channel is written as this process's
part, then the child's, a chunk at a time: within each level the L
subtree's nodes come first, so these are the same bytes.

Each tree is one entry of KINDS: its seed pair and combine rule, and the
one text render of the regions its walk carries.  The markov and triple
trees are grown as the a = 0 Cohn tree, by the source paper's theorem (see
cohn): a node costs one integer matrix product, and its Markov fraction
e11/e12 and Markov number e12 are read straight off the matrix, with no gcd
or square root; the weighted mediant and markov_child stay in markov as the
reference routes the tests compare with.  A cohn matrix's JSON, and an
irrational region's, comes from one fixed template; every other kind's JSON
value is its text, as a JSON string.  The CLI, the exports and verify all
read KINDS; the verify window reads the irrational tree's convergent
matrices before the lift.

from_json regrows the tree from the file's header as to_json grows it,
with the same renders, and loads a file only if every node in it is the one
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
from .cohn import check_cohn_parameter, cohn_A, cohn_B, cohn_index
from .errors import DomainError, shown
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
    _preorder,
    _right_subtree,
    _root_and_left,
    _split,
    _walk,
    check_depth,
    format_path,
)


def _itself(value):
    return value


@dataclass(frozen=True)
class Kind:
    """One value tree: how it grows and how its regions serialize.

    seeds(a) is the seed pair and combine fills in every node from its two
    parent regions, so a header (kind, depth, a) fixes the tree.  A region
    is what the walk carries, which need not be the library's value: text
    is its one render, for CSV cells, DOT labels and, as a JSON string,
    JSON; no file's value is read back, since from_json regrows the tree.
    lift maps a region to the library's value, and only TreeExport.nodes
    reads it.  json_text is the JSON template of a kind whose JSON value is
    not a string: it renders a region straight to JSON text at a node's
    nesting level (3), as json.dumps(..., indent=1, sort_keys=True) would
    write it there.  join, when set, makes the render of a node's region
    from the renders of its parent regions, as _splice does for words.
    Only a kind that takes_a reads the parameter a, and only its exports
    record it.
    """

    seeds: Callable
    combine: Callable
    text: Callable
    lift: Callable = _itself
    takes_a: bool = False
    join: Optional[Callable] = None
    json_text: Optional[Callable] = None


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


def _index_text(m: Mat2) -> str:
    return f"{m.e11}/{m.e12}"


def _e12_text(m: Mat2) -> str:
    return str(m.e12)


def _cohn_json(m: Mat2) -> str:
    """m's entries, a 2 x 2 list of decimal strings, as JSON at nesting level 3."""
    return (f'[\n    [\n     "{m.e11}",\n     "{m.e12}"\n    ],'
            f'\n    [\n     "{m.e21}",\n     "{m.e22}"\n    ]\n   ]')


def _qi_json(m: Mat2) -> str:
    """fixed_point(m)'s fields as decimal strings, keys sorted, as JSON at nesting level 3."""
    x = fixed_point(m)
    return f'{{\n    "B": "{x.B}",\n    "D": "{x.D}",\n    "P": "{x.P}",\n    "Q": "{x.Q}"\n   }}'


KINDS = {
    "farey": Kind(lambda a: (Fraction(0), Fraction(1)), farey_mediant,
                  format_fraction),
    # The Markov fractions as the index e11/e12 of the a = 0 Cohn tree, the
    # source paper's theorem, and the Markov numbers as its e12 = trace / 3.
    # The regions are the Cohn matrices, so a node costs one integer product
    # and no gcd or isqrt.  The text is exact: cohn_A(0) and cohn_B(0) check
    # det = 1 and trace = 3 * e12, integer products keep det = 1, so e11 and
    # e12 are coprime, and on the a = 0 tree e12 is a Markov number, so > 0.
    "markov": Kind(lambda a: (cohn_A(0).m, cohn_B(0).m), Mat2.__matmul__,
                   _index_text, lift=cohn_index),
    "triple": Kind(lambda a: (cohn_A(0).m, cohn_B(0).m), Mat2.__matmul__,
                   _e12_text, lift=lambda m: m.e12),
    "cohn": Kind(lambda a: (cohn_A(a).m, cohn_B(a).m), Mat2.__matmul__, format_mat2,
                 takes_a=True, json_text=_cohn_json),
    # Plain concatenation: the seeds are even words of positive ints and
    # concatenation keeps them so; cf_concat's checks are for callers' words.
    "cf": Kind(lambda a: (WORD_SEED_LEFT, WORD_SEED_RIGHT), add,
               format_cf_word, join=_splice),
    # The cf tree's convergent matrices, by the concatenation rule: a word's
    # matrix is the product of its parents', and its fixed point the word's
    # periodization.
    "irrational": Kind(lambda a: (convergent_matrix(WORD_SEED_LEFT),
                                  convergent_matrix(WORD_SEED_RIGHT)),
                       Mat2.__matmul__, lambda m: format_qi(fixed_point(m)),
                       lift=fixed_point, json_text=_qi_json),
}

TREE_KINDS = tuple(KINDS)


def _kind(name: str) -> Kind:
    try:
        return KINDS[name]
    except (KeyError, TypeError):
        raise DomainError(f"unknown tree kind {shown(name)}; "
                          f"expected one of {TREE_KINDS}") from None


@dataclass(frozen=True)
class TreeExport:
    """A tree export's header: kind, depth and, for a kind that takes it, a.

    These fix the tree, so the header is all a writer or loader reads.  The
    one header rule runs as it is made: a known kind, tree.check_depth and,
    for a kind that takes a, cohn.check_cohn_parameter; every other kind's a
    is None.  nodes is the tree grown from it on first use.
    """

    kind: str
    depth: int
    a: Optional[int]

    def __post_init__(self):
        spec = _kind(self.kind)
        check_depth(self.depth)
        if spec.takes_a:
            check_cohn_parameter(self.a)
        elif self.a is not None:
            raise DomainError(f"a {self.kind} tree takes no Cohn parameter, so a must be None")

    @cached_property
    def nodes(self) -> tuple:
        spec = KINDS[self.kind]
        return tuple(starmap(Node, _grow(spec, self.depth, self.a, spec.lift)))


def _grow(spec: Kind, depth: int, a: Optional[int], out: Callable,
          join: Optional[Callable] = None, walk: Callable = _walk) -> Iterator[tuple]:
    """spec's tree to depth, in walk's order, as (path, left, right, value) tuples.

    Each region is given as what it carries, out(region), made once, when
    the region is grown, and handed down to the nodes below it.  Given join,
    a node carries join(left's carry, right's carry) instead, and out runs
    on the two seeds alone.  spec, depth and a come from a checked header.
    """
    seeds = spec.seeds(a)
    if join is not None:
        return walk(*map(out, seeds), join, depth)

    def combine(x, y):
        value = spec.combine(x[0], y[0])
        return value, out(value)

    nodes = walk(*[(seed, out(seed)) for seed in seeds], combine, depth)
    return ((path, left[1], right[1], value[1]) for path, left, right, value in nodes)


def build_export(kind: str, depth: int, a: int = 0) -> TreeExport:
    """The header of kind's tree to depth (at most HARD_DEPTH_CAP).

    The one place the package makes a header, checked as it is made; a is
    None for every kind that does not take it.  Nothing is grown here.
    """
    return TreeExport(kind, depth, a if _kind(kind).takes_a else None)


# ============================================================
# formats
# ============================================================

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
    the breadth-first file.  From _SPLIT_MIN_NODES nodes on, by tree._split's
    rule, this process spools the root and its L subtree, and a forked child
    spools the R subtree, whose texts follow the L subtree's in every
    channel, into a temp file made before the fork and sends back only the
    (offset, size) chunks.  Nothing reaches out before every walk is done,
    so a walk that raises writes nothing, and an out that opens its file at
    the first write never opens it.
    """
    parts = []  # the spools, held here alone so that dropping them frees their text

    def halves():
        import tempfile

        parts[:] = _Spool(channels), _Spool(channels, tempfile.TemporaryFile())

        def child():
            theirs = parts[1]
            theirs.add(texts(_right_subtree))
            for channel in range(channels):
                if theirs.held[channel]:
                    theirs.move(channel)
            theirs.spill.flush()  # the child leaves by os._exit, which flushes nothing
            return theirs.chunks

        return (lambda: parts[0].add(texts(_root_and_left)), child,
                lambda _, chunks: setattr(parts[1], "chunks", chunks))

    def alone():
        while parts:  # a failed split's spools, closed and dropped
            parts.pop().close()
        parts.append(_Spool(channels))
        parts[0].add(texts(_preorder))

    try:
        _split(depth, _SPLIT_MIN_NODES, halves, alone)
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
    "nodes": [{"path", "value", "left", "right"}, ...]}, each value its
    kind's JSON template, or else its text as a JSON string.  Keys come in
    sorted order, and a node's fields sit at nesting level 3.  Paths are
    letters L and R, or '-', so need no escaping.
    Written to the open binary file out; given none, returned as text.
    """
    if out is None:
        return _as_text(to_json, export)
    spec = KINDS[export.kind]

    def texts(walk):
        nodes = _grow(spec, export.depth, export.a,
                      spec.json_text or (lambda region: json.dumps(spec.text(region))),
                      spec.join, walk)
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

    The header must hold exactly the keys to_json writes, and is checked as
    build_export makes it: a depth above HARD_DEPTH_CAP or |a| >= HARD_A_CAP
    raises DepthLimitError.  The node count is checked before any node is
    grown.
    Then the tree is regrown beside the file as to_json grows and renders
    it, and the first node that is not the one to_json writes there, '2/4'
    for '1/2' or a value its parents do not combine to, raises DomainError,
    as does every other refusal.  The loaded export is the header; its nodes
    are grown on first use.
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
    parsed = ((lambda region: json.loads(spec.json_text(region))) if spec.json_text
              else spec.text)
    grown = _grow(spec, depth, a, parsed, spec.join)
    for raw, (path, left, right, value) in zip(raw_nodes, grown):
        where = format_path(path)
        if raw != {"path": where, "left": left, "right": right, "value": value}:
            raise DomainError(f"malformed tree export: node {where} is not the node "
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
    spec = KINDS[export.kind]

    def texts(walk):
        nodes = _grow(spec, export.depth, export.a,
                      lambda region: _csv_cell(spec.text(region)), spec.join, walk)
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
    spec = KINDS[export.kind]

    def texts(walk):
        nodes = _grow(spec, export.depth, export.a,
                      lambda region: _dot_quote(spec.text(region)), spec.join, walk)
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
    writer = EXPORT_FORMATS.get(fmt) if isinstance(fmt, str) else None
    if writer is None:
        raise DomainError(f"unknown export format {shown(fmt)}; expected json, dot, or csv")
    return writer(export, out)
