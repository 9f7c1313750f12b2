"""Tree exports, serialization formats, and the command line."""

import io
import json
import os
import stat
import threading
import time
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest

from topograph import (
    TREE_KINDS,
    DepthLimitError,
    DomainError,
    cftree,
    build_export,
    from_json,
    make_qi,
    markov_irrationality,
    mirror,
    periodic_value,
    rational,
    render,
    to_csv,
    to_dot,
    to_json,
)
from topograph import export as export_module
from topograph.cli import main
from topograph.export import KINDS
from test_cli_limits import AT_ONCE_S


# ============================================================
# exports
# ============================================================

def test_build_export_counts():
    for kind in ("farey", "markov", "triple", "cohn", "cf", "irrational"):
        export = build_export(kind, 2)
        assert len(export.nodes) == 7
        assert export.kind == kind
    assert build_export("cohn", 1, 2).a == 2
    assert build_export("farey", 1).a is None


def test_build_export_unknown_kind():
    with pytest.raises(DomainError):
        build_export("fibonacci", 2)


def test_markov_export_depth_two_values():
    export = build_export("markov", 2)
    values = {n.path: str(n.value) for n in export.nodes}
    assert values[""] == "2/5"
    assert values["LL"] == "13/34"
    assert values["LR"] == "75/194"
    assert values["RL"] == "179/433"
    assert values["RR"] == "70/169"


def test_triple_export_values():
    export = build_export("triple", 2)
    assert [n.value for n in export.nodes] == [5, 13, 29, 34, 194, 433, 169]


def test_irrational_export_depth_one():
    # word-tree addressing is mirrored relative to the fraction trees, so
    # the L node carries the periodization for coordinate 2/3
    export = build_export("irrational", 1)
    assert export.nodes[0].value == make_qi(9, 1, 10, 221)
    assert export.nodes[1].value == make_qi(53, 1, 58, 7565)
    assert export.nodes[2].value == make_qi(23, 1, 26, 1517)
    # parents periodize too: the right seed region holds the golden ratio
    assert export.nodes[0].right == make_qi(1, 1, 2, 5)


@pytest.mark.parametrize("depth", range(9))
def test_word_exports_hold_the_mirrored_markov_tree(depth):
    # At path P the cf and irrational exports hold the values of the Markov
    # node at mirror(P), with left and right swapped.
    markov = {n.path: n for n in build_export("markov", depth).nodes}
    cf, irrational = build_export("cf", depth).nodes, build_export("irrational", depth).nodes
    assert len(cf) == len(irrational) == len(markov)
    for word, qi in zip(cf, irrational):
        assert word.path == qi.path
        m = markov[mirror(word.path)]
        swapped = (m.right, m.left, m.value)
        assert (word.left, word.right, word.value) == tuple(
            rational.cf_expand_even(2 + x) for x in swapped)
        assert (qi.left, qi.right, qi.value) == tuple(map(markov_irrationality, swapped))


def _periodized_word_tree(depth):
    """The replaced irrational route: periodic_value of every cf export region."""
    return [(periodic_value(n.left), periodic_value(n.right), periodic_value(n.value))
            for n in build_export("cf", depth).nodes]


@pytest.mark.parametrize("depth", range(10))
def test_irrational_export_is_the_periodized_word_tree(depth):
    export = build_export("irrational", depth)
    assert [(n.left, n.right, n.value) for n in export.nodes] == _periodized_word_tree(depth)


def test_irrational_export_runs_the_kernel_on_the_seeds_only(monkeypatch):
    # Patched in both modules, since cftree binds the kernel by name.
    seen = []

    def spy(word):
        seen.append(len(word))
        return real(word)

    real = rational._convergents
    monkeypatch.setattr(rational, "_convergents", spy)
    monkeypatch.setattr(cftree, "_convergents", spy)
    assert len(build_export("irrational", 8).nodes) == 2 ** 9 - 1
    assert seen and max(seen) <= 2


@pytest.mark.parametrize("depth", range(9))
def test_irrational_export_lifts_each_region_once(depth, monkeypatch):
    spec = KINDS["irrational"]
    calls = []

    def lift(m):
        calls.append(m)
        return spec.lift(m)

    monkeypatch.setitem(KINDS, "irrational", replace(spec, lift=lift))
    tree = build_export("irrational", depth)
    tree.nodes
    assert len(calls) == 2 ** (depth + 1) + 1
    assert [(n.left, n.right, n.value) for n in tree.nodes] == _periodized_word_tree(depth)


def test_json_deterministic_and_round_trips():
    for kind in ("farey", "markov", "triple", "cohn", "cf", "irrational"):
        export = build_export(kind, 2, 1)
        text = to_json(export)
        assert text == to_json(build_export(kind, 2, 1))
        assert to_json(from_json(text)) == text


def test_json_schema_fields():
    payload = json.loads(to_json(build_export("cohn", 1, a=1)))
    assert payload["kind"] == "cohn"
    assert payload["depth"] == 1
    assert payload["a"] == 1
    assert [n["path"] for n in payload["nodes"]] == ["-", "L", "R"]
    assert payload["nodes"][0]["value"] == [["7", "5"], ["11", "8"]]
    farey = json.loads(to_json(build_export("farey", 0)))
    assert "a" not in farey
    assert farey["nodes"][0] == {"path": "-", "value": "1/2", "left": "0/1", "right": "1/1"}


def _edited(payload, path, field, value):
    """payload with one field of the node at path replaced."""
    return {**payload, "nodes": [{**n, field: value} if n["path"] == path else n
                                 for n in payload["nodes"]]}


def test_from_json_rejects_garbage():
    with pytest.raises(DomainError):
        from_json("{not json")
    with pytest.raises(DomainError):
        from_json('{"kind": "farey"}')
    node = {"path": "-", "left": "0/1", "right": "1/1", "value": "1/2"}
    farey = json.loads(to_json(build_export("farey", 1)))
    cohn = json.loads(to_json(build_export("cohn", 0)))
    cohn2 = json.loads(to_json(build_export("cohn", 2)))
    irrational = json.loads(to_json(build_export("irrational", 0)))
    for payload in (
        {"kind": "farey", "depth": 0, "nodes": [{**node, "value": 5}]},
        {"kind": "farey", "depth": 0, "nodes": [{**node, "path": 5}]},
        {**cohn, "a": "x"},
        {**cohn, "a": True},
        *({**farey, "depth": depth} for depth in (True, 3.7, "2", -4, 5)),
        # only what build_export writes: the breadth-first paths of the depth,
        # an a exactly for cohn, and canonical values
        {"kind": "farey", "depth": -1, "nodes": []},
        {**farey, "nodes": farey["nodes"][::-1]},
        {**farey, "nodes": [farey["nodes"][0], farey["nodes"][1], farey["nodes"][1]]},
        {**farey, "a": 3},
        {k: v for k, v in cohn.items() if k != "a"},
        {**farey, "extra": 1},
        {**cohn, "extra": 1},
        *({**irrational, "nodes": [{**irrational["nodes"][0], "value": value}]}
          for value in ({"P": "1", "B": "-3", "Q": "0", "D": "4"},
                        {"P": "1", "B": "1", "Q": "0", "D": "5"},
                        {"P": "2", "B": "2", "Q": "4", "D": "5"})),
        # values that decode but are not what to_json writes for them
        *({"kind": "farey", "depth": 0, "nodes": [{**node, "value": value}]}
          for value in ("2/4", "+1/2", " 1/2", "1_0/2_1")),
        {"kind": "triple", "depth": 0,
         "nodes": [{"path": "-", "left": "1", "right": "2", "value": "+5"}]},
        # canonical values that are not the ones the tree grows there
        _edited(farey, "L", "right", "2/3"),
        _edited(farey, "R", "left", "1/3"),
        _edited(farey, "L", "value", "9/10"),
        _edited(cohn2, "LL", "left", cohn2["nodes"][4]["value"]),
        # an a, even null, for a kind that takes none
        *({**farey, "a": a} for a in ("x", None, False, [1])),
    ):
        with pytest.raises(DomainError):
            from_json(json.dumps(payload))
    # refused as build_export refuses them
    with pytest.raises(DepthLimitError):
        from_json(json.dumps({**cohn, "a": 2**64}))
    with pytest.raises(DepthLimitError):
        from_json(json.dumps({**farey, "depth": 25}))


def test_from_json_refuses_a_deep_junk_file_at_the_root():
    # Bounded by the text: nothing of the claimed depth-20 tree is built.
    text = ('{"kind": "markov", "depth": 20, "nodes": ['
            + ", ".join(["{}"] * (2 ** 21 - 1)) + "]}")
    started = time.perf_counter()
    with pytest.raises(DomainError, match="node - is not"):
        from_json(text)
    assert time.perf_counter() - started < AT_ONCE_S


@pytest.mark.parametrize("kind", TREE_KINDS)
def test_from_json_ignores_layout(kind):
    text = json.dumps(json.loads(to_json(build_export(kind, 3, 1))))
    assert from_json(text) == build_export(kind, 3, 1)


def test_csv_rows():
    lines = to_csv(build_export("farey", 1)).splitlines()
    assert lines[0] == "path,value,left,right"
    assert lines[1] == "-,1/2,0/1,1/1"
    assert lines[2] == "L,1/3,0/1,1/2"
    assert lines[3] == "R,2/3,1/2,1/1"


def test_dot_output():
    dot = to_dot(build_export("markov", 1))
    assert dot.startswith("graph markov {")
    assert '"-" [label="2/5"];' in dot
    assert "seed_L -- seed_R;" in dot
    # the L child region touches the left seed and the root region
    assert '"L" -- seed_L;' in dot
    assert '"L" -- "-";' in dot
    assert dot == to_dot(build_export("markov", 1))


def test_render_dispatch():
    export = build_export("farey", 1)
    assert render(export, "json") == to_json(export)
    with pytest.raises(DomainError):
        render(export, "yaml")


# ============================================================
# command line
# ============================================================

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_mu(capsys):
    code, out, _ = run_cli(capsys, "mu", "1/2")
    assert code == 0
    assert "value = 2/5" in out
    assert "markov_number = 5" in out


def test_cli_mu_boundary(capsys):
    code, out, _ = run_cli(capsys, "mu", "0/1")
    assert code == 0
    assert "value = 0/1" in out


def test_cli_mu_json(capsys):
    code, out, _ = run_cli(capsys, "mu", "2/3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "coordinate": "2/3", "value": "12/29", "path": "R", "markov_number": "29",
    }


def test_cli_triple(capsys):
    code, out, _ = run_cli(capsys, "triple", "LRR")
    assert code == 0
    assert "triple = (194, 5, 2897)" in out
    code, out, _ = run_cli(capsys, "triple", "-")
    assert "triple = (1, 2, 5)" in out


def test_cli_cohn(capsys):
    code, out, _ = run_cli(capsys, "cohn", "1/2", "--a", "1")
    assert code == 0
    assert "matrix = [[7,5],[11,8]]" in out
    assert "index = 7/5" in out
    code, out, _ = run_cli(capsys, "cohn", "0/1", "--a", "2")
    assert code == 0 and "matrix = [[2,1],[1,1]]" in out


def test_cli_cf_modes(capsys):
    code, out, _ = run_cli(capsys, "cf", "1/3")
    assert code == 0 and "word = [2,2,1,1,1,1]" in out and "value = 31/13" in out
    code, out, _ = run_cli(capsys, "cf", "1/2", "--mode", "periodic")
    assert code == 0 and "word = ~[2,2,1,1]" in out and "(9+√221)/10" in out
    code, out, _ = run_cli(capsys, "cf", "1/3", "--mode", "periodic")
    assert code == 0 and "word = ~[2,2,1,1,1,1]" in out and "(23+√1517)/26" in out
    code, out, _ = run_cli(capsys, "cf", "1/2", "--mode", "companion", "--m", "2")
    assert code == 0 and "companion = 179/75" in out


def test_cli_tree_stdout_and_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "tree", "--kind", "farey", "--depth", "1",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "-,1/2,0/1,1/1"

    target = tmp_path / "tree.json"
    code, out, _ = run_cli(capsys, "tree", "--kind", "markov", "--depth", "2",
                           "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert len(payload["nodes"]) == 7


@pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
def test_cli_tree_stdout_gets_the_bytes_of_out(fmt, tmp_path, capsysbinary):
    # The irrational tree's values hold a non-ASCII square root sign.
    target = tmp_path / f"tree.{fmt}"
    argv = ["tree", "--kind", "irrational", "--depth", "3", "--format", fmt]
    assert main(argv) == 0
    shown = capsysbinary.readouterr().out
    assert main(argv + ["--out", str(target)]) == 0
    assert target.read_bytes() == shown == render(build_export("irrational", 3), fmt).encode()


def _fail_at_lr(monkeypatch):
    # The farey tree's LR node is 2/5; its combine raises there, mid-export.
    spec = KINDS["farey"]

    def failing(left, right):
        value = spec.combine(left, right)
        if value == Fraction(2, 5):
            raise ValueError("planted failure")
        return value

    monkeypatch.setitem(KINDS, "farey", replace(spec, combine=failing))


@pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
@pytest.mark.parametrize("spill", [False, True], ids=["held", "spilled"])
def test_a_failed_export_leaves_out_as_it_was(fmt, spill, tmp_path, capsys, monkeypatch):
    if spill:
        monkeypatch.setattr(export_module, "_SPILL_BYTES", 1)
    _fail_at_lr(monkeypatch)
    absent, kept = tmp_path / "absent.out", tmp_path / "kept.out"
    kept.write_bytes(b"old content\n")
    for target in (absent, kept):
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli(capsys, "tree", "--kind", "farey", "--depth", "3",
                                 "--format", fmt, "--out", str(target))
        assert code == 3 and out == ""
        assert "CombineError" in err and "planted failure" in err
        assert sorted(tmp_path.iterdir()) == before
    assert not absent.exists()
    assert kept.read_bytes() == b"old content\n"


def test_cli_tree_out_replaces_a_file(tmp_path, capsys):
    target = tmp_path / "tree.csv"
    target.write_text("old content\n")
    code, _, _ = run_cli(capsys, "tree", "--kind", "farey", "--depth", "1",
                         "--format", "csv", "--out", str(target))
    assert code == 0
    assert target.read_text() == to_csv(build_export("farey", 1))
    assert [path.name for path in tmp_path.iterdir()] == ["tree.csv"]
    # The file has the mode open() gives a new file, not a private temp file's.
    reference = tmp_path / "reference"
    reference.write_text("")
    assert target.stat().st_mode == reference.stat().st_mode


def test_cli_tree_out_keeps_the_mode_of_a_replaced_file(tmp_path, capsys):
    target = tmp_path / "tree.csv"
    target.write_text("old content\n")
    target.chmod(0o640)
    code, _, _ = run_cli(capsys, "tree", "--kind", "farey", "--depth", "1",
                         "--format", "csv", "--out", str(target))
    assert code == 0 and target.read_text() == to_csv(build_export("farey", 1))
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


@pytest.mark.parametrize("dangling", [False, True], ids=["file", "dangling"])
def test_cli_tree_out_writes_through_a_symlink(dangling, tmp_path, capsys):
    links, files = tmp_path / "links", tmp_path / "files"
    links.mkdir()
    files.mkdir()
    target, link = files / "tree.csv", links / "tree.csv"
    if not dangling:
        target.write_text("old content\n")
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "tree", "--kind", "farey", "--depth", "1",
                         "--format", "csv", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == to_csv(build_export("farey", 1))
    assert [p.name for p in links.iterdir()] == [p.name for p in files.iterdir()] == ["tree.csv"]


def test_cli_tree_out_writes_into_a_fifo(tmp_path, capsys):
    fifo = tmp_path / "tree.fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()))
    reader.start()
    try:
        code, _, _ = run_cli(capsys, "tree", "--kind", "irrational", "--depth", "3",
                             "--format", "dot", "--out", str(fifo))
    finally:
        if reader.is_alive():  # the export never opened the FIFO: let the reader go
            with open(fifo, "wb"):
                pass
        reader.join()
    assert code == 0
    assert read == [render(build_export("irrational", 3), "dot").encode()]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["tree.fifo"]


def test_cli_tree_out_rewrites_a_hard_linked_file_in_place(tmp_path, capsys):
    target, other = tmp_path / "tree.csv", tmp_path / "other.csv"
    target.write_text("old content\n")
    os.link(target, other)
    inode = target.stat().st_ino
    code, _, _ = run_cli(capsys, "tree", "--kind", "farey", "--depth", "1",
                         "--format", "csv", "--out", str(target))
    assert code == 0 and target.stat().st_ino == inode
    assert other.read_text() == target.read_text() == to_csv(build_export("farey", 1))


@pytest.mark.skipif(os.geteuid() != 0, reason="only root can give a file to another user")
def test_cli_tree_out_keeps_the_owner_of_another_users_file(tmp_path, capsys):
    target = tmp_path / "tree.csv"
    target.write_text("old content\n")
    os.chown(target, 65534, 65534)
    code, _, _ = run_cli(capsys, "tree", "--kind", "farey", "--depth", "1",
                         "--format", "csv", "--out", str(target))
    assert code == 0 and target.read_text() == to_csv(build_export("farey", 1))
    assert (target.stat().st_uid, target.stat().st_gid) == (65534, 65534)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("depth", [3, 10], ids=["at-close", "at-write"])
def test_a_full_out_is_named_in_the_error(depth, capsys):
    # Depth 3 fits the file's buffer, so the error comes when close flushes it.
    code, out, err = run_cli(capsys, "tree", "--kind", "farey", "--depth", str(depth),
                             "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 28] No space left on device: '/dev/full'\n"


def test_cli_tree_writes_text_to_a_text_stdout(capsys):
    shown = io.StringIO()
    with redirect_stdout(shown):
        assert main(["tree", "--kind", "irrational", "--depth", "2", "--format", "json"]) == 0
    assert shown.getvalue() == to_json(build_export("irrational", 2))


@pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
def test_a_failed_export_writes_nothing_to_stdout(fmt, capsysbinary, monkeypatch):
    _fail_at_lr(monkeypatch)
    assert main(["tree", "--kind", "farey", "--depth", "3", "--format", fmt]) == 3
    assert capsysbinary.readouterr().out == b""


def test_cli_tree_depth_cap(capsys):
    code, _, err = run_cli(capsys, "tree", "--kind", "markov", "--depth", "13")
    assert code == 2 and "cap" in err
    code, _, _ = run_cli(capsys, "tree", "--kind", "farey", "--depth", "13",
                         "--format", "csv", "--max-depth", "14")
    assert code == 0


def test_cli_parse_errors(capsys):
    code, _, err = run_cli(capsys, "mu", "one half")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "mu", "3/2")
    assert code == 2
    code, _, err = run_cli(capsys, "triple", "LRX")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--suites", "nonsense", "--depth", "2")
    assert code == 2
    # Each side of a coordinate is ASCII digits with an optional sign: int
    # alone would also read underscores, inner blanks and other scripts' digits.
    for coordinate in ("1_0/2_1", "1 / 2", "\uff11/\uff12"):
        code, out, err = run_cli(capsys, "mu", coordinate)
        assert code == 2 and out == ""
        assert f"cannot parse fraction from {coordinate!r}" in err


# Every integer option and --a-values entry follows the coordinates' rule,
# rational.parse_int: int alone would run each of these.
INTEGER_TEXT_CASES = [
    ("cohn", "1/2", "--a", "1_0"),
    ("cohn", "1/2", "--a", "\uff12"),
    ("cf", "1/2", "--mode", "companion", "--m", "1_0"),
    ("tree", "--kind", "farey", "--depth", "1_0", "--max-depth", "12"),
    ("tree", "--kind", "farey", "--depth", "1", "--max-depth", "1_2"),
    ("verify", "--suites", "index", "--depth", "\u0661"),
    ("verify", "--suites", "index", "--depth", "1", "--a-values", "1_0,\u0663"),
]


@pytest.mark.parametrize("argv", INTEGER_TEXT_CASES, ids=" ".join)
def test_cli_integer_text_is_ascii_digits(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses an option's text itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert ("invalid integer value" in err if "--a-values" not in argv
            else "--a-values must be comma-separated integers" in err)


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc_info:
        main(["bogus"])
    assert exc_info.value.code == 2


def test_cli_verify_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suites",
                           "monotonicity,distinctness", "--depth", "4")
    assert code == 0
    assert "overall: PASS" in out


def test_cli_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suites", "words",
                           "--depth", "3", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["suite"] == "words"
    assert reports[0]["ok"] is True
    assert reports[0]["failures"] == 0


def test_cli_verify_failure_exit_code(capsys, monkeypatch):
    """A failing suite must flip the exit code to 1."""
    import topograph.cli as cli_module
    from topograph.verify import VerifyReport

    def broken(window):
        report = VerifyReport("relations", window.depth)
        report.record("doomed", False, "-", "synthetic failure")
        return report

    monkeypatch.setitem(cli_module.SUITES, "relations", broken)
    code, out, _ = run_cli(capsys, "verify", "--suites", "relations", "--depth", "2")
    assert code == 1
    assert "overall: FAIL" in out
    assert "synthetic failure" in out