"""The direct JSON and CSV writers against the standard library's.

to_json and to_csv write each distinct region once, and from_json encodes
each once.  The reference here is the route they replaced: the whole payload
through json.dumps, and every row through csv.writer.
"""

import csv
import io
import json
from dataclasses import replace

import pytest

from topograph import TREE_KINDS, build_export, from_json, to_csv, to_json
from topograph.export import KINDS, _csv_cell
from topograph.tree import format_path
from topograph.verify import DEFAULT_A_VALUES

CASES = ([(kind, 0) for kind in TREE_KINDS if kind != "cohn"]
         + [("cohn", a) for a in (*DEFAULT_A_VALUES, 2**64 - 1, -(2**64 - 1))])


def reference_json(tree) -> str:
    encode = KINDS[tree.kind].encode
    payload = {
        "kind": tree.kind,
        "depth": tree.depth,
        "nodes": [{"path": format_path(n.path), "value": encode(n.value),
                   "left": encode(n.left), "right": encode(n.right)} for n in tree.nodes],
    }
    if tree.a is not None:
        payload["a"] = tree.a
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def reference_csv(tree) -> str:
    text = KINDS[tree.kind].text
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "value", "left", "right"])
    for n in tree.nodes:
        writer.writerow([format_path(n.path), text(n.value), text(n.left), text(n.right)])
    return buf.getvalue()


@pytest.mark.parametrize("kind,a", CASES)
def test_writers_match_the_standard_library(kind, a):
    for depth in range(10):
        tree = build_export(kind, depth, a)
        assert to_json(tree) == reference_json(tree), depth
        assert to_csv(tree) == reference_csv(tree), depth


def test_csv_quotes_as_csv_writer_does():
    cells = ["1/2", "[[7,5],[11,8]]", 'say "x"', "a\nb", "(1+√5)/2"]
    for cell in cells:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([cell])
        assert _csv_cell(cell) + "\n" == buf.getvalue()


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_each_region_is_serialized_once(kind, monkeypatch):
    calls = {"encode": 0, "text": 0}
    spec = KINDS[kind]

    def counted(name):
        def fn(value):
            calls[name] += 1
            return getattr(spec, name)(value)
        return fn

    monkeypatch.setitem(KINDS, kind, replace(spec, encode=counted("encode"), text=counted("text")))
    for depth in range(9):
        regions = 2 ** (depth + 1) + 1
        tree = build_export(kind, depth, 1)
        calls.update(encode=0, text=0)
        text = to_json(tree)
        to_csv(tree)
        assert calls == {"encode": regions, "text": regions}, depth
        # A loaded tree is regrown, so its nodes share regions as built ones do.
        calls.update(encode=0, text=0)
        loaded = from_json(text)
        assert calls == {"encode": regions, "text": 0}, depth
        calls.update(encode=0, text=0)
        to_json(loaded)
        to_csv(loaded)
        assert calls == {"encode": regions, "text": regions}, depth
