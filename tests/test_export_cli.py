"""Tree exports, serialization formats, and the command line."""

import json

import pytest

from topograph import (
    DepthLimitError,
    DomainError,
    cftree,
    build_export,
    from_json,
    make_qi,
    periodic_value,
    rational,
    render,
    to_csv,
    to_dot,
    to_json,
)
from topograph.cli import main


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


def test_from_json_rejects_garbage():
    with pytest.raises(DomainError):
        from_json("{not json")
    with pytest.raises(DomainError):
        from_json('{"kind": "farey"}')
    node = {"path": "-", "left": "0/1", "right": "1/1", "value": "1/2"}
    farey = json.loads(to_json(build_export("farey", 1)))
    cohn = json.loads(to_json(build_export("cohn", 0)))
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
        {**farey, "depth": 25},
        {**farey, "a": 3},
        {k: v for k, v in cohn.items() if k != "a"},
        *({**irrational, "nodes": [{**irrational["nodes"][0], "value": value}]}
          for value in ({"P": "1", "B": "-3", "Q": "0", "D": "4"},
                        {"P": "1", "B": "1", "Q": "0", "D": "5"},
                        {"P": "2", "B": "2", "Q": "4", "D": "5"})),
    ):
        with pytest.raises(DomainError):
            from_json(json.dumps(payload))
    # refused as build_export refuses it
    with pytest.raises(DepthLimitError):
        from_json(json.dumps({**cohn, "a": 2**64}))


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