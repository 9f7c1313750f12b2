"""The direct writers against the routes they replaced.

Each writer grows the tree from the export's header and renders each
distinct region once, and from_json reads back each region's render once:
its text, or a template kind's parsed JSON template; a cf word's render
is spliced from its parents' renders, and the markov and triple trees are
grown as the a = 0 Cohn tree and read off its matrices.  The references
here share none of that: they grow each tree with its original rule (the
weighted mediant for markov, markov_child for triple, each word's periodic
value for irrational) and render its values with the value-level
formatters, the whole payload through json.dumps, every row through
csv.writer and every word letter by letter through format_cf_word.
"""

import csv
import errno
import io
import json
import os
import tempfile
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from topograph import (
    TREE_KINDS,
    Mat2,
    TreeExport,
    build_export,
    cf_concat,
    cohn_A,
    cohn_B,
    enumerate_tree,
    export,
    farey_mediant,
    format_fraction,
    from_json,
    periodic_value,
    render,
    springborn_mediant,
    to_csv,
    to_dot,
    to_json,
)
from topograph.cftree import WORD_SEED_LEFT, WORD_SEED_RIGHT, fixed_point, format_qi
from topograph.errors import DepthLimitError, DomainError
from topograph.export import KINDS, _csv_cell
from topograph.markov import MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT, markov_child
from topograph.rational import format_cf_word, format_mat2
from topograph.tree import format_path
from topograph.verify import DEFAULT_A_VALUES

CASES = ([(kind, 0) for kind in TREE_KINDS if kind != "cohn"]
         + [("cohn", a) for a in (*DEFAULT_A_VALUES, 2**64 - 1, -(2**64 - 1))])


# Each kind's tree by its original rule: seeds(a) and combine.
RULES = {
    "farey": (lambda a: (Fraction(0), Fraction(1)), farey_mediant),
    "markov": (lambda a: (MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT), springborn_mediant),
    "triple": (lambda a: (1, 2), markov_child),
    "cohn": (lambda a: (cohn_A(a).m, cohn_B(a).m), Mat2.__matmul__),
    "cf": (lambda a: (WORD_SEED_LEFT, WORD_SEED_RIGHT), cf_concat),
    "irrational": (lambda a: (WORD_SEED_LEFT, WORD_SEED_RIGHT), cf_concat),
}


def _qi_fields(x) -> dict:
    return {f: str(getattr(x, f)) for f in "PBQD"}


# Each kind's values as text (CSV cells, DOT labels) and as JSON; an
# irrational node's value is its word's periodic value.
FORMATTERS = {
    "farey": (format_fraction, format_fraction),
    "markov": (format_fraction, format_fraction),
    "triple": (str, str),
    "cohn": (format_mat2, lambda m: [[str(m.e11), str(m.e12)], [str(m.e21), str(m.e22)]]),
    "cf": (format_cf_word, format_cf_word),
    "irrational": (lambda word: format_qi(periodic_value(word)),
                   lambda word: _qi_fields(periodic_value(word))),
}


def reference_nodes(tree) -> list:
    """Every node of tree, breadth-first, grown by its kind's original rule."""
    seeds, combine = RULES[tree.kind]
    return list(enumerate_tree(*seeds(tree.a), combine, tree.depth))


def reference_json(tree) -> str:
    encode = FORMATTERS[tree.kind][1]
    payload = {
        "kind": tree.kind,
        "depth": tree.depth,
        "nodes": [{"path": format_path(n.path), "value": encode(n.value),
                   "left": encode(n.left), "right": encode(n.right)}
                  for n in reference_nodes(tree)],
    }
    if tree.a is not None:
        payload["a"] = tree.a
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def reference_csv(tree) -> str:
    text = FORMATTERS[tree.kind][0]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "value", "left", "right"])
    for n in reference_nodes(tree):
        writer.writerow([format_path(n.path), text(n.value), text(n.left), text(n.right)])
    return buf.getvalue()


def reference_dot(tree) -> str:
    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    text = FORMATTERS[tree.kind][0]
    nodes = reference_nodes(tree)
    root = nodes[0]  # its two parents are the seed regions
    lines = [f"graph {tree.kind} {{", "  node [shape=plaintext];"]
    lines.append(f"  seed_L [label={quote(text(root.left))}];")
    lines.append(f"  seed_R [label={quote(text(root.right))}];")
    for n in nodes:
        lines.append(f"  {quote(format_path(n.path))} [label={quote(text(n.value))}];")
    lines.append("  seed_L -- seed_R;")
    for n in nodes:
        last_r, last_l = n.path.rfind("R"), n.path.rfind("L")
        left_id = quote(format_path(n.path[:last_r])) if last_r >= 0 else "seed_L"
        right_id = quote(format_path(n.path[:last_l])) if last_l >= 0 else "seed_R"
        me = quote(format_path(n.path))
        lines.append(f"  {me} -- {left_id};")
        lines.append(f"  {me} -- {right_id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind,a", CASES)
def test_writers_match_the_standard_library(kind, a):
    for depth in range(10):
        tree = build_export(kind, depth, a)
        assert to_json(tree) == reference_json(tree), depth
        assert to_csv(tree) == reference_csv(tree), depth


@pytest.mark.parametrize("kind,a", CASES)
def test_dot_writer_matches_the_node_by_node_route(kind, a):
    for depth in range(10):
        tree = build_export(kind, depth, a)
        assert to_dot(tree) == reference_dot(tree), depth


@pytest.mark.parametrize("kind,a", CASES)
def test_writers_read_the_header_alone(kind, a):
    # kind, depth and a fix the tree, so the writers never read the nodes.
    for depth in range(6):
        built = build_export(kind, depth, a)
        header = TreeExport(kind, depth, built.a)
        for writer in (to_json, to_csv, to_dot):
            assert writer(header) == writer(built), (writer.__name__, depth)


REFERENCES = {"json": reference_json, "csv": reference_csv, "dot": reference_dot}


@pytest.mark.parametrize("kind,a", CASES)
def test_every_level_spilled_gives_the_same_bytes(kind, a, monkeypatch):
    # At a limit of one character every text goes to the spill file.
    monkeypatch.setattr(export, "_SPILL_BYTES", 1)
    for depth in range(7):
        tree = build_export(kind, depth, a)
        for fmt, reference in REFERENCES.items():
            assert render(tree, fmt) == reference(tree), (fmt, depth)


def _count_spill_files(monkeypatch) -> list:
    made = []
    real = tempfile.TemporaryFile

    def counted(*args, **kwargs):
        made.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(tempfile, "TemporaryFile", counted)
    return made


@pytest.mark.parametrize("fields,error", [
    (("markov", 25, None), DepthLimitError),
    (("cohn", 12, 2**70), DepthLimitError),
    (("markov", "12", None), DomainError),
    (("markov", 2.0, None), DomainError),
    (("markov", 10**6, None), DepthLimitError),
    (("farey", 3, 5), DomainError),
    ((["farey"], 3, None), DomainError),
], ids=["depth-25", "a-2**70", "depth-str", "depth-float", "depth-10**6", "a-not-taken",
        "kind-list"])
def test_a_hand_made_header_is_refused_before_any_work(monkeypatch, fields, error):
    # TreeExport is public, so a header checks itself as it is made: no
    # writer sizes a spool by its depth, makes a temp file or forks for it,
    # even where it would split.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []

    def fork():
        forks.append(1)
        raise BlockingIOError(errno.EAGAIN, "refused in this test")

    monkeypatch.setattr(os, "fork", fork)
    made = _count_spill_files(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(error):
            TreeExport(*fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (forks, made) == ([], [])
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("fmt", REFERENCES)
def test_a_small_tree_makes_no_spill_file_and_a_large_one_makes_one(fmt, monkeypatch):
    made = _count_spill_files(monkeypatch)
    tree = build_export("markov", 8)
    text = render(tree, fmt)
    assert made == []
    monkeypatch.setattr(export, "_SPILL_BYTES", 1)
    assert render(tree, fmt) == text
    assert made == [1]


class _Sink:
    """A binary file that counts what it is given and keeps none of it."""

    size = 0

    def write(self, data: bytes) -> int:
        self.size += len(data)
        return len(data)


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_writers_hold_a_fraction_of_the_file(kind, monkeypatch):
    # The text of a level past the limit leaves memory, so the peak is some
    # levels' worth of limit and O(depth) regions, not the file; a writer
    # that built its text whole would peak above the file's size.
    monkeypatch.setattr(export, "_SPILL_BYTES", 1 << 12)
    sink = _Sink()
    tree = build_export(kind, 11, 1)
    tracemalloc.start()
    try:
        to_json(tree, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == len(to_json(tree).encode())
    assert peak < sink.size / 4, (peak, sink.size)


CF = KINDS["cf"]
# The four renders of a word, each from format_cf_word letter by letter.
WORD_RENDERS = {
    "text": CF.text,
    "json": lambda word: json.dumps(CF.text(word)),
    "csv": lambda word: _csv_cell(CF.text(word)),
    "dot": lambda word: '"' + CF.text(word) + '"',
}


@pytest.mark.parametrize("render", WORD_RENDERS)
def test_splice_is_the_concatenation_rule_in_text(render):
    show = WORD_RENDERS[render]
    pairs = 0
    for node in enumerate_tree(*CF.seeds(0), CF.combine, 9):
        assert CF.join(show(node.left), show(node.right)) == show(node.left + node.right)
        pairs += 1
    assert pairs == 2 ** 10 - 1


def test_csv_quotes_as_csv_writer_does():
    cells = ["1/2", "[[7,5],[11,8]]", 'say "x"', "a\nb", "(1+√5)/2"]
    for cell in cells:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([cell])
        assert _csv_cell(cell) + "\n" == buf.getvalue()


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_each_region_is_serialized_once(kind, monkeypatch):
    spec = KINDS[kind]
    # A kind with a JSON template writes its JSON from it, and from_json
    # parses it back; every other kind's JSON, and what from_json compares
    # with, is its text.
    json_from = "json_text" if spec.json_text else "text"
    calls = dict.fromkeys(["text", "json_text"], 0)

    def counted(name):
        def fn(value):
            calls[name] += 1
            return getattr(spec, name)(value)
        return fn

    monkeypatch.setitem(KINDS, kind, replace(
        spec, text=counted("text"),
        json_text=counted("json_text") if spec.json_text else None))
    for depth in range(9):
        # A cf word's render is spliced from its parents', so only the two
        # seeds are formatted.
        formatted = 2 if kind == "cf" else 2 ** (depth + 1) + 1
        none = dict.fromkeys(calls, 0)
        tree = build_export(kind, depth, 1)
        calls.update(none)
        text = to_json(tree)
        assert calls == {**none, json_from: formatted}, depth
        calls.update(none)
        to_csv(tree)
        assert calls == {**none, "text": formatted}, depth
        # A loaded tree is regrown, so its nodes share regions as built ones do.
        calls.update(none)
        loaded = from_json(text)
        assert calls == {**none, json_from: formatted}, depth
        calls.update(none)
        to_json(loaded)
        assert calls == {**none, json_from: formatted}, depth
        calls.update(none)
        to_csv(loaded)
        assert calls == {**none, "text": formatted}, depth


def _json_templates_match_json_dumps(kind: str, a, ref) -> None:
    # A node's fields sit at nesting level 3, so each line of a value after
    # its first is indented three more spaces than json.dumps indents it.
    # ref is this file's own encoder of a region, not the package's.
    spec = KINDS[kind]
    nodes = list(enumerate_tree(*spec.seeds(a), spec.combine, 8))
    regions = [nodes[0].left, nodes[0].right] + [node.value for node in nodes]
    for m in regions:
        expected = json.dumps(ref(m), indent=1, sort_keys=True).replace("\n", "\n   ")
        assert spec.json_text(m) == expected, m
    assert len(regions) == 2 ** 9 + 1


@pytest.mark.parametrize("a", [*DEFAULT_A_VALUES, 2**64 - 1, -(2**64 - 1)])
def test_the_cohn_json_template_is_the_generic_route(a):
    # The generic route is json.dumps; negative entries and 20-digit ones included.
    # The walk carries entry tuples; this file's encoder reads a Mat2.
    _json_templates_match_json_dumps("cohn", a, lambda m: FORMATTERS["cohn"][1](Mat2(*m)))


def test_the_irrational_json_template_is_the_generic_route():
    _json_templates_match_json_dumps("irrational", None, lambda m: _qi_fields(fixed_point(m)))
