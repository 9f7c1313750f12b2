"""Caps and exit codes: oversized point queries, unwritable output and unused
options exit 2 at once, and an internal error exits 3."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from topograph import (
    HARD_A_CAP,
    HARD_POINT_CAP,
    HARD_TRIPLE_CAP,
    SUITES,
    CohnMatrix,
    DepthLimitError,
    DomainError,
    InvariantError,
    MarkovTriple,
    Mat2,
    PreconditionError,
    TreeExport,
    build_export,
    cf_eval,
    cf_expand_even,
    cohn_A,
    cohn_at,
    cohn_B,
    cohn_index,
    compare_gap,
    enumerate_tree,
    farey_mediant,
    from_json,
    left_companion,
    locate,
    make_fraction,
    make_qi,
    markov_cf,
    markov_child,
    markov_fraction,
    markov_irrationality,
    markov_triple_at,
    qi_compare,
    render,
    run_suites,
    springborn_mediant,
    to_json,
    trace_map,
    vieta_flip,
)
from topograph import cli
from topograph.cli import main
from topograph.export import KINDS
from topograph.rational import check_int
from topograph.tree import check_point_size
from topograph.verify import DEFAULT_A_VALUES, HARD_A_VALUES_CAP

# Generous: a refused query does no work, but the machine may be busy.
AT_ONCE_S = 2.0
# Generous too: answered in about 0.5 s each on a 2-core VM.
AT_CAP_S = 3.0


def run_cli(capsys, *argv):
    started = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    return code, captured.out, captured.err, elapsed


@pytest.mark.parametrize("argv", [
    ("mu", "1/100000000"),
    ("cf", "1/2", "--mode", "companion", "--m", "1000000000"),
    ("cohn", f"1/{HARD_POINT_CAP + 1}"),
    ("cf", f"1/{HARD_POINT_CAP + 1}", "--mode", "periodic"),
], ids=" ".join)
def test_oversized_point_query_exits_2_at_once(capsys, argv):
    code, out, err, elapsed = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "exceeds cap" in err
    assert elapsed < AT_ONCE_S


def test_point_cap_boundary():
    q = HARD_POINT_CAP
    for query in (locate, markov_fraction, markov_cf, lambda t: cohn_at(t, 1)):
        with pytest.raises(DepthLimitError):
            query(Fraction(1, q + 1))
    with pytest.raises(DepthLimitError):
        left_companion(Fraction(1, 2), q // 2 + 1)
    assert markov_fraction(Fraction(q - 1, q)).denominator > 1


@pytest.mark.parametrize("argv,answer", [
    (("cf", f"1/{HARD_POINT_CAP}", "--mode", "periodic"), "\nvalue = ("),
    (("cf", "1/2", "--mode", "companion", "--m", str(HARD_POINT_CAP // 2)), "\ncompanion = "),
], ids=["periodic", "companion"])
def test_largest_word_queries_answer_in_time(capsys, argv, answer):
    code, out, err, elapsed = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert answer in out
    assert elapsed < AT_CAP_S


def test_companion_mode_builds_no_word_of_its_own(capsys, monkeypatch):
    # left_companion builds the word it repeats; only the word and periodic
    # modes print the word itself.
    def refuse(t):
        raise AssertionError("cf --mode companion called markov_cf")

    monkeypatch.setattr(cli, "markov_cf", refuse)
    code, out, err, _ = run_cli(capsys, "cf", "1/2", "--mode", "companion", "--m", "2")
    assert code == 0 and err == ""
    assert "\ncompanion = 179/75\n" in out


@pytest.mark.parametrize("path", ["L" * 5000, "LR" * 20], ids=["L*5000", "(LR)*20"])
def test_oversized_triple_path_exits_2_at_once(capsys, path):
    code, out, err, elapsed = run_cli(capsys, "triple", path)
    assert code == 2 and out == ""
    assert "exceeds cap" in err
    assert elapsed < 1.0


def test_triple_cap_boundary(capsys):
    # The path L^k ends at Farey coordinate 1/(k + 2).
    k = HARD_TRIPLE_CAP - 2
    with pytest.raises(DepthLimitError):
        markov_triple_at("L" * (k + 1))
    code, out, err, _ = run_cli(capsys, "triple", "L" * k)
    assert code == 0 and err == ""
    x, y, z = (int(c) for c in out.split("triple = (")[1].rstrip(")\n").split(", "))
    # Parents 0/1 and the node at L^(k-1), by the run-length route
    assert (x, y, z) == (1, markov_fraction(Fraction(1, k + 1)).denominator,
                         markov_fraction(Fraction(1, k + 2)).denominator)


@pytest.mark.parametrize("step", ["L", "R"])
def test_triple_at_cap_answers_in_time(capsys, step):
    # Both one-letter paths of HARD_TRIPLE_CAP - 2 steps end at denominator
    # HARD_TRIPLE_CAP; the walk carries three ints, so this takes milliseconds.
    code, out, err, elapsed = run_cli(capsys, "triple", step * (HARD_TRIPLE_CAP - 2))
    assert code == 0 and err == ""
    assert "triple = (" in out
    assert elapsed < 0.5


def test_deep_answer_prints_in_full(capsys):
    # The Markov number at 1/20000 has about 8,400 digits, past the
    # interpreter's default int-to-str limit.
    code, out, _, _ = run_cli(capsys, "mu", "1/20000")
    assert code == 0
    number = out.split("markov_number = ")[1].strip()
    want = markov_fraction(Fraction(1, 20000)).denominator
    assert len(number) > 8000 and number.isdigit()
    assert int(number[-40:]) == want % 10**40


def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    # Checked before the walk: open() alone would find these only once the
    # export is done.
    spec, combines = KINDS["farey"], []

    def counting(left, right):
        combines.append(1)
        return spec.combine(left, right)

    monkeypatch.setitem(KINDS, "farey", dataclasses.replace(spec, combine=counting))
    read_only = tmp_path / "read-only"
    read_only.mkdir(mode=0o555)
    targets = [tmp_path / "missing" / "x.json", tmp_path, ""]
    if os.geteuid() != 0:  # root writes whatever the mode bits say
        targets.append(read_only / "x.json")
    for target in targets:
        before = sorted(tmp_path.rglob("*"))
        code, out, err, elapsed = run_cli(capsys, "tree", "--kind", "farey", "--depth", "12",
                                          "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert combines == [] and elapsed < AT_ONCE_S
        assert sorted(tmp_path.rglob("*")) == before


# case: (--suites text, or None where only a library caller can pass the
# arguments; run_suites' names and a_values; the message)
BAD_SUITE_LISTS = {
    "unknown": ("index,nosuch", ["index", "nosuch"], DEFAULT_A_VALUES, "unknown suite 'nosuch'"),
    "empty": (",", [], DEFAULT_A_VALUES, "no suite named"),
    "repeat": ("words,index,words", ["words", "index", "words"], DEFAULT_A_VALUES,
               "--suites must be distinct"),
    "one-string": (None, "relations", DEFAULT_A_VALUES, "suites must be a list, got str"),
    "no-names": (None, None, DEFAULT_A_VALUES, "suites must be a list, got NoneType"),
    "name-list": (None, [["x"]], DEFAULT_A_VALUES, "unknown suite ['x']"),
    "a-int": (None, ["index"], 5, "--a-values must be a list, got int"),
}


@pytest.mark.parametrize("case", BAD_SUITE_LISTS)
def test_bad_suite_list_exits_2_before_any_suite_runs(capsys, monkeypatch, case):
    suites, names, a_values, message = BAD_SUITE_LISTS[case]
    ran = []
    for name in list(SUITES):
        monkeypatch.setitem(SUITES, name, lambda window, name=name: ran.append(name))
    if suites is not None:
        code, out, err, elapsed = run_cli(capsys, "verify", "--suites", suites, "--depth", "12")
        assert code == 2 and out == ""
        assert message in err
        assert ran == []
        assert elapsed < AT_ONCE_S
    with pytest.raises(DomainError, match=re.escape(message)):
        run_suites(names, 12, a_values)
    assert ran == []


@pytest.mark.parametrize("suites,depth", [
    ("homomorphism,companions", -5),
    ("monotonicity", -1),
], ids=["window-free", "window"])
def test_negative_depth_exits_2_before_any_suite_runs(capsys, monkeypatch, suites, depth):
    ran = []
    for name in list(SUITES):
        monkeypatch.setitem(SUITES, name, lambda window, name=name: ran.append(name))
    code, out, err, _ = run_cli(capsys, "verify", "--suites", suites, "--depth", str(depth))
    assert code == 2 and out == ""
    assert "depth must be >= 0" in err
    assert ran == []
    with pytest.raises(PreconditionError, match="depth must be >= 0"):
        run_suites(suites.split(","), depth)
    assert ran == []


@pytest.mark.parametrize("suites,depth", [
    ("companions,relations", 25),
    ("homomorphism", 100),
], ids=["window-last", "window-free"])
def test_depth_above_the_cap_raises_before_any_suite_runs(monkeypatch, suites, depth):
    ran = []
    for name in list(SUITES):
        monkeypatch.setitem(SUITES, name, lambda window, name=name: ran.append(name))
    with pytest.raises(DepthLimitError, match=f"depth {depth} exceeds cap"):
        run_suites(suites.split(","), depth)
    assert ran == []


# The one rule for every depth and Cohn parameter that enters the library:
# an int (not a bool), the depth in [0, HARD_DEPTH_CAP] and |a| < HARD_A_CAP.
DEPTH_CASES = [(True, DomainError), (1.5, DomainError), ("2", DomainError),
               (-1, PreconditionError), (25, DepthLimitError)]
A_CASES = [(True, DomainError), (0.5, DomainError), ("1", DomainError)]
FAREY = json.loads(to_json(build_export("farey", 1)))
COHN = json.loads(to_json(build_export("cohn", 1)))

DEPTH_ENTRIES = {
    "enumerate_tree": lambda d: next(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, d)),
    "build_export": lambda d: build_export("farey", d),
    "run_suites": lambda d: run_suites(["index"], d),
    "from_json": lambda d: from_json(json.dumps({**FAREY, "depth": d})),
}
A_ENTRIES = {
    "cohn_A": cohn_A,
    "cohn_at": lambda a: cohn_at(Fraction(1, 2), a),
    "build_export": lambda a: build_export("cohn", 1, a),
    "run_suites": lambda a: run_suites(["index"], 2, (a,)),
    "from_json": lambda a: from_json(json.dumps({**COHN, "a": a})),
}


def _refused_as(entry: str, error: type) -> type:
    # from_json reports every ValueError as a malformed file.
    return DomainError if entry == "from_json" and issubclass(error, ValueError) else error


@pytest.mark.parametrize("entry", DEPTH_ENTRIES)
@pytest.mark.parametrize("depth,error", DEPTH_CASES, ids=[repr(d) for d, _ in DEPTH_CASES])
def test_every_depth_entry_refuses_by_one_rule(entry, depth, error):
    with pytest.raises(_refused_as(entry, error)):
        DEPTH_ENTRIES[entry](depth)


@pytest.mark.parametrize("entry", A_ENTRIES)
@pytest.mark.parametrize("a,error", A_CASES, ids=[repr(a) for a, _ in A_CASES])
def test_every_cohn_parameter_entry_refuses_by_one_rule(entry, a, error):
    with pytest.raises(_refused_as(entry, error)):
        A_ENTRIES[entry](a)


# A coordinate is an int or a Fraction.  A float is not read as the binary
# fraction it holds (0.1 would need the denominator 2**55), a bool not as 0
# or 1, and a string not parsed.
POINT_CASES = [0.5, 0.1, True, False, "1/2", None]
POINT_ENTRIES = {
    "locate": locate,
    "markov_fraction": markov_fraction,
    "cohn_at": cohn_at,
    "markov_cf": markov_cf,
    "markov_triple_at": lambda t: markov_triple_at(locate(t)),
    "left_companion": lambda t: left_companion(t, 1),
}


@pytest.mark.parametrize("entry", POINT_ENTRIES)
@pytest.mark.parametrize("t", POINT_CASES, ids=repr)
def test_every_point_entry_refuses_a_coordinate_that_is_no_fraction(entry, t):
    with pytest.raises(DomainError, match="coordinate must be an int or a Fraction"):
        POINT_ENTRIES[entry](t)


# Every other rational argument follows the same rule, rational.check_rational.
RATIONAL_CASES = [0.5, True, "1/2", Decimal("2.5"), None]
GOLDEN = markov_irrationality(Fraction(2, 5))
RATIONAL_ARGUMENTS = {
    "cf_expand_even x": cf_expand_even,
    "springborn_mediant lo": lambda x: springborn_mediant(x, Fraction(1, 2)),
    "springborn_mediant hi": lambda x: springborn_mediant(Fraction(0), x),
    "markov_irrationality Markov fraction": markov_irrationality,
    "qi_compare r": lambda x: qi_compare(x, GOLDEN),
    "compare_gap r1": lambda x: compare_gap(x, Fraction(3), GOLDEN),
    "compare_gap r2": lambda x: compare_gap(Fraction(3), x, GOLDEN),
}


@pytest.mark.parametrize("argument", RATIONAL_ARGUMENTS)
@pytest.mark.parametrize("x", RATIONAL_CASES, ids=repr)
def test_every_rational_argument_refuses_what_is_no_fraction(argument, x):
    what = argument.partition(" ")[2]
    with pytest.raises(DomainError, match=f"^{what} must be an int or a Fraction, got "):
        RATIONAL_ARGUMENTS[argument](x)


# An integer argument follows one rule too, rational.check_int: an int, not a
# bool, a float or a string, and at least its minimum where it has one.
INT_CASES = [True, False, 1.0, "1", None]
# argument: (a call passing it, the start of its message, its minimum or None)
INT_ARGUMENTS = {
    "enumerate_tree depth": (lambda n: list(enumerate_tree(Fraction(0), Fraction(1),
                                                           farey_mediant, n)),
                             "depth must be an int", 0),
    "cohn_A a": (cohn_A, "Cohn parameter must be an int", None),
    "left_companion m": (lambda n: left_companion(Fraction(1, 2), n),
                         "repetition count must be an int >= 1", 1),
    "Mat2 ** n": (lambda n: Mat2(1, 1, 0, 1) ** n, "matrix power must be an int >= 0", 0),
    "MarkovTriple x": (lambda n: MarkovTriple(n, 1, 1), "triple component must be an int >= 1",
                       1),
    "MarkovTriple y": (lambda n: MarkovTriple(1, n, 1), "triple component must be an int >= 1",
                       1),
    "MarkovTriple": (lambda n: MarkovTriple(1, 1, n), "triple component must be an int >= 1", 1),
    "markov_child": (lambda n: markov_child(n, 1), "parent number must be an int >= 1", 1),
    "markov_child y": (lambda n: markov_child(1, n), "parent number must be an int >= 1", 1),
    "cf_eval letter": (lambda n: cf_eval((2, n)),
                       "continued fraction quotient must be an int >= 1", 1),
    "make_fraction num": (lambda n: make_fraction(n, 2), "fraction numerator must be an int",
                          None),
    "make_fraction den": (lambda n: make_fraction(1, n), "fraction denominator must be an int",
                          None),
    "make_qi P": (lambda n: make_qi(n, 1, 2, 5), "P must be an int", None),
    "make_qi B": (lambda n: make_qi(1, n, 2, 5), "B must be an int", None),
    "make_qi Q": (lambda n: make_qi(1, 1, n, 5), "Q must be an int", None),
    "make_qi D": (lambda n: make_qi(1, 1, 2, n), "D must be an int", None),
    # Mat2(1, 1, 1, 2) is a Cohn matrix: determinant 1, trace 3 * e12.
    "CohnMatrix a": (lambda n: CohnMatrix(Mat2(1, 1, 1, 2), n), "Cohn parameter must be an int",
                     None),
    "CohnMatrix e11": (lambda n: CohnMatrix(Mat2(n, 1, 1, 2), 0), "matrix entry must be an int",
                       None),
    "CohnMatrix e22": (lambda n: CohnMatrix(Mat2(1, 1, 1, n), 0), "matrix entry must be an int",
                       None),
    "cohn_index Mat2 e11": (lambda n: cohn_index(Mat2(n, 1, 1, 2)),
                            "matrix entry must be an int", None),
    "trace_map Mat2 e21": (lambda n: trace_map(Mat2(1, 1, n, 2)), "matrix entry must be an int",
                           None),
}
INT_REFUSALS = [(argument, x) for argument, (_, _, least) in INT_ARGUMENTS.items()
                for x in INT_CASES + ([] if least is None else [least - 1])]


@pytest.mark.parametrize("argument,x", INT_REFUSALS,
                         ids=[f"{argument}-{x!r}" for argument, x in INT_REFUSALS])
def test_every_integer_argument_refuses_what_is_no_int(argument, x):
    call, message, least = INT_ARGUMENTS[argument]
    if argument == "enumerate_tree depth" and x == -1:
        # A negative depth is an int out of range, not a wrong type.
        with pytest.raises(PreconditionError, match="^depth must be >= 0, got -1$"):
            call(x)
    else:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}, got {re.escape(repr(x))}$"):
            call(x)
    if least is not None:
        call(least)


# The same refusals with every other argument a real Markov value: the type
# check must not wait for a later check to fail.
@pytest.mark.parametrize("entry", [
    lambda: Mat2(1, 1, 0, 1) ** True,
    lambda: Mat2(1, 1, 0, 1) ** 2.0,
    lambda: MarkovTriple(1, 2, 5.0),
    lambda: markov_child(True, 2),
], ids=["Mat2**True", "Mat2**2.0", "MarkovTriple(...,5.0)", "markov_child(True,2)"])
def test_integer_entries_refuse_a_bool_or_a_float(entry):
    with pytest.raises(DomainError):
        entry()


def test_int_coordinates_are_the_boundaries():
    assert markov_fraction(0) == Fraction(0) and markov_fraction(1) == Fraction(1, 2)
    assert markov_cf(1) == markov_cf(Fraction(1)) and left_companion(1, 2) == Fraction(29, 12)


# --max-depth is the CLI's own cap; the library refuses the rest.
CLI_DEPTH_CASES = [
    (("--depth", "25", "--max-depth", "30"), "depth 25 exceeds cap 24"),
    (("--depth", "13"), "depth 13 exceeds cap 12"),
    (("--depth", "-1"), "depth must be >= 0"),
]


@pytest.mark.parametrize("command", [("tree", "--kind", "farey"), ("verify",)], ids=["tree", "verify"])
@pytest.mark.parametrize("argv,message", CLI_DEPTH_CASES,
                         ids=[" ".join(argv) for argv, _ in CLI_DEPTH_CASES])
def test_bad_depth_exits_2_at_once(capsys, command, argv, message):
    code, out, err, elapsed = run_cli(capsys, *command, *argv)
    assert code == 2 and out == ""
    assert message in err
    assert elapsed < AT_ONCE_S


@pytest.mark.parametrize("a_values,message", [
    ("0,0", "--a-values must be distinct"),
    ("1,2,-1,2", "--a-values must be distinct"),
    ("x", "--a-values must be comma-separated integers"),
    ("0,,1", "--a-values must be comma-separated integers"),
    ("1.5", "--a-values must be comma-separated integers"),
    ("-2,0,-2", "--a-values must be distinct"),
    ("-1,x", "--a-values must be comma-separated integers"),
], ids=["0,0", "repeat", "x", "empty-entry", "1.5", "negative-repeat", "negative-x"])
def test_bad_a_values_exit_2_before_any_suite_runs(capsys, monkeypatch, a_values, message):
    ran = []
    for name in list(SUITES):
        monkeypatch.setitem(SUITES, name, lambda window, name=name: ran.append(name))
    code, out, err, elapsed = run_cli(capsys, "verify", "--suites", "index",
                                      "--a-values", a_values, "--depth", "12")
    assert code == 2 and out == ""
    assert message in err and "invalid literal" not in err
    assert ran == []
    assert elapsed < AT_ONCE_S
    if "distinct" in message:
        with pytest.raises(DomainError, match=message):
            run_suites(["index"], 12, tuple(int(a) for a in a_values.split(",")))
        assert ran == []


@pytest.mark.parametrize("argv", [
    ("--a-values", "-2,0"),
    ("--a-values=-2,0",),
], ids=["separate", "equals"])
def test_a_values_may_start_with_a_negative_entry(capsys, argv):
    code, out, err, _ = run_cli(capsys, "verify", "--suites", "index", "--depth", "2",
                                *argv, "--format", "json")
    assert code == 0 and err == ""
    [report] = json.loads(out)
    assert report["params"] == {"a_values": [-2, 0]}
    assert report["checks"]["det"] == 14


def test_cohn_parameter_cap_boundary(capsys):
    assert HARD_A_CAP == 2**64
    for a in (HARD_A_CAP - 1, -(HARD_A_CAP - 1)):
        assert cohn_A(a).a == cohn_B(a).a == a
        [report] = run_suites(["index"], 2, (0, a))
        assert report.ok and report.checks["det"] == 14
        code, out, err, _ = run_cli(capsys, "cohn", "1/2", "--a", str(a))
        assert code == 0 and err == "" and "markov_number = 5" in out
    for a in (HARD_A_CAP, -HARD_A_CAP):
        for refused in (cohn_A, cohn_B, lambda a: cohn_at(Fraction(1, 2), a),
                        lambda a: build_export("cohn", 2, a)):
            with pytest.raises(DepthLimitError, match="exceeds cap"):
                refused(a)


@pytest.mark.parametrize("a", [HARD_A_CAP, -HARD_A_CAP, 10**4000], ids=["2^64", "-2^64", "10^4000"])
def test_oversized_cohn_parameter_exits_2_before_any_work(capsys, monkeypatch, a):
    ran = []
    for name in list(SUITES):
        monkeypatch.setitem(SUITES, name, lambda window, name=name: ran.append(name))
    for argv in (("cohn", "1/2", "--a", str(a)),
                 ("tree", "--kind", "cohn", "--depth", "8", "--a", str(a), "--format", "json"),
                 ("verify", "--suites", "index", "--depth", "12", "--a-values", f"0,{a}")):
        code, out, err, elapsed = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "exceeds cap" in err
        assert elapsed < AT_ONCE_S
    with pytest.raises(DepthLimitError, match="exceeds cap"):
        run_suites(["index", "relations"], 12, (0, a))
    assert ran == []


UNUSED_OPTIONS = [
    (("tree", "--kind", "farey", "--depth", "1", "--a", "99999999999999999999999999"), "--a"),
    (("tree", "--kind", "cf", "--depth", "1", "--a", "0", "--format", "json"), "--a"),
    (("cf", "1/2", "--m", "5"), "--m"),
    (("cf", "1/2", "--mode", "periodic", "--m", "1"), "--m"),
    (("verify", "--suites", "words", "--depth", "2", "--a-values", "5,7"), "--a-values"),
    (("verify", "--suites", "relations,words", "--a-values", "0"), "--a-values"),
]


@pytest.mark.parametrize("argv,option", UNUSED_OPTIONS,
                         ids=[" ".join(argv) for argv, _ in UNUSED_OPTIONS])
def test_an_option_the_command_does_not_use_exits_2_before_any_work(capsys, monkeypatch,
                                                                    argv, option):
    ran = []
    for name in ("render", "markov_cf", "run_suites"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: ran.append(name))
    code, out, err, elapsed = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} ")
    assert elapsed < AT_ONCE_S
    assert ran == []


def test_an_option_that_applies_keeps_its_default(capsys):
    for plain, spelled in ((("tree", "--kind", "cohn", "--depth", "2", "--format", "json"),
                            ("--a", "0")),
                           (("cf", "1/2", "--mode", "companion"), ("--m", "1"))):
        code, out, err, _ = run_cli(capsys, *plain)
        assert code == 0 and err == ""
        assert run_cli(capsys, *plain, *spelled)[:3] == (0, out, "")


def test_an_internal_error_exits_3_not_1(capsys, monkeypatch):
    # 1 means only that a counterexample was found; a bug is neither that nor a usage error.
    def broken(t):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(cli, "markov_fraction", broken)
    code, out, err, _ = run_cli(capsys, "mu", "1/2")
    assert code == 3 and out == ""
    assert "Traceback (most recent call last)" in err
    assert err.endswith("error: internal error: ZeroDivisionError: planted\n")

    # A broken invariant or a failed combine is a TopographError, but no
    # input reaches either: every input is checked before a walk.
    monkeypatch.setattr(cli, "cohn_at", lambda t, a: CohnMatrix(Mat2(1, 1, 0, 1), 0))
    code, out, err, _ = run_cli(capsys, "cohn", "1/2")
    assert code == 3 and out == ""
    assert "Traceback (most recent call last)" in err
    assert "error: internal error: InvariantError: trace 2 != 3 * e12 = 3" in err

    def failing(lo, hi):
        raise ZeroDivisionError("planted")

    monkeypatch.setitem(KINDS, "markov", dataclasses.replace(KINDS["markov"], combine=failing))
    code, out, err, _ = run_cli(capsys, "tree", "--kind", "markov", "--depth", "2")
    assert code == 3 and out == ""
    assert "Traceback (most recent call last)" in err
    assert err.endswith("error: internal error: CombineError: "
                        "combine failed at node 'root': planted\n")


def test_more_cohn_parameters_than_the_cap_exit_2_before_any_suite_runs(capsys, monkeypatch):
    # Each parameter is one more Cohn tree walk in the index suite.
    [report] = run_suites(["index"], 1, range(HARD_A_VALUES_CAP))
    assert report.ok and len(report.params["a_values"]) == HARD_A_VALUES_CAP
    ran = []
    for name in list(SUITES):
        monkeypatch.setitem(SUITES, name, lambda window, name=name: ran.append(name))
    a_values = range(HARD_A_VALUES_CAP + 1)
    with pytest.raises(DepthLimitError, match=f"{len(a_values)} Cohn parameters exceeds cap"):
        run_suites(["relations", "index"], 12, a_values)
    code, out, err, elapsed = run_cli(capsys, "verify", "--suites", "index", "--depth", "12",
                                      "--a-values", ",".join(map(str, a_values)))
    assert code == 2 and out == ""
    assert "exceeds cap" in err
    assert elapsed < AT_ONCE_S
    assert ran == []


def test_a_point_size_is_named_by_its_bits():
    # Writing a size of 120,000 digits out in decimal would make the message that long.
    for size, bits in ((HARD_POINT_CAP + 1, 18), (10**120000, 398632)):
        with pytest.raises(DepthLimitError) as refused:
            check_point_size(size)
        assert str(refused.value) == (f"point query size of {bits} bits exceeds cap "
                                      f"q * m <= {HARD_POINT_CAP}")


# A refusal shows a value past errors.SHOWN_INT_BITS bits by its size, so
# each of these raises the error its site intends, and at once; str and repr
# raise ValueError for an int of more than 4,300 digits.  The CLI hands the
# library strings, so only a library caller can pass them.
HUGE = 10**5000
HUGE_REFUSALS = {
    "TreeExport kind": (lambda: TreeExport(HUGE, 1, None), DomainError),
    "TreeExport depth": (lambda: TreeExport("farey", HUGE, None), DepthLimitError),
    "build_export depth": (lambda: build_export("farey", -HUGE), PreconditionError),
    "render format": (lambda: render(build_export("farey", 1), HUGE), DomainError),
    "run_suites name": (lambda: run_suites([HUGE], 1), DomainError),
    "run_suites depth": (lambda: run_suites(["relations"], HUGE), DepthLimitError),
    "check_int": (lambda: check_int(-HUGE, "x", 1), DomainError),
    "cohn_at": (lambda: cohn_at(HUGE), DomainError),
    "markov_fraction": (lambda: markov_fraction(HUGE), DomainError),
    "locate": (lambda: locate(Fraction(HUGE, 3)), DomainError),
    "cf_expand_even": (lambda: cf_expand_even(Fraction(1, HUGE)), DomainError),
    "cf_eval": (lambda: cf_eval([1, -HUGE]), DomainError),
    "Mat2 **": (lambda: Mat2(1, 0, 0, 1) ** -HUGE, DomainError),
    "farey_mediant": (lambda: farey_mediant(Fraction(HUGE), Fraction(0)), PreconditionError),
    "springborn_mediant": (lambda: springborn_mediant(Fraction(HUGE), Fraction(0)),
                           PreconditionError),
    "MarkovTriple": (lambda: MarkovTriple(HUGE, 1, 1), DomainError),
    "markov_child": (lambda: markov_child(HUGE, 1), DomainError),
    "vieta_flip": (lambda: vieta_flip(MarkovTriple(1, 1, 1), HUGE), DomainError),
    "make_qi": (lambda: make_qi(0, 1, 1, -HUGE), DomainError),
    "cohn_index": (lambda: cohn_index(Mat2(HUGE, 0, 0, 0)), DomainError),
    "CohnMatrix": (lambda: CohnMatrix(Mat2(HUGE, 0, 0, 1), 0), InvariantError),
}


@pytest.mark.parametrize("case", HUGE_REFUSALS)
def test_a_huge_value_is_refused_by_its_site_at_once(case):
    call, error = HUGE_REFUSALS[case]
    started = time.perf_counter()
    with pytest.raises(error, match=" bits>"):
        call()
    assert time.perf_counter() - started < 1.0


def test_the_index_suite_with_no_cohn_parameter_raises_before_any_suite_runs(monkeypatch):
    # It would pass having checked nothing.  Suites that read no Cohn
    # parameter do not need one.
    assert run_suites(["relations"], 1, ())[0].checks["cross-left"] == 3
    ran = []
    for name in list(SUITES):
        monkeypatch.setitem(SUITES, name, lambda window, name=name: ran.append(name))
    for names in (["index"], ["relations", "index"]):
        with pytest.raises(DomainError, match="--a-values must name a Cohn parameter"):
            run_suites(names, 3, ())
    assert ran == []


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("argv", [
    ("verify", "--depth", "1", "--format", "json"),
    ("tree", "--kind", "farey", "--depth", "10", "--format", "csv"),
    ("mu", "1/2"),
    ("mu", "--help"),
], ids=" ".join)
@pytest.mark.parametrize("closed", ["stdout", "stdout-and-stderr"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=[pytest.HIDDEN_PARAM, "unbuffered"])
def test_a_closed_output_pipe_exits_2(argv, closed, unbuffered):
    # With stderr closed too, the error message cannot be written either;
    # the exit code must still say "output error", never 1 (a counterexample).
    # Unbuffered, a write to the closed pipe fails at once; buffered, the
    # default (so unnamed in the ids), only a flush finds it: for --help that
    # is main's own, where the interpreter's flush at exit gave 120.
    proc = _run_on_a_closed_pipe(argv, closed, unbuffered)
    assert proc.returncode == 2
    if closed == "stdout":
        assert proc.stderr.startswith(b"error: ") and b"Broken pipe" in proc.stderr


@pytest.mark.parametrize("unbuffered", [False], ids=["buffered"])
def test_help_on_a_closed_stdout_exits_2(unbuffered):
    # Buffered, main's flush must find the closed pipe and report it once:
    # nothing may be left for the interpreter's flush at exit, which would add
    # an "Exception ignored" message and exit 120.
    proc = _run_on_a_closed_pipe(("mu", "--help"), "stdout", unbuffered)
    assert proc.returncode == 2
    assert re.fullmatch(rb"error: [^\n]*Broken pipe\n", proc.stderr)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_closed_output_pipe_leaks_no_fd(monkeypatch, capsys):
    # The devnull a closed stdout is pointed at must be closed once dup2 has
    # copied it, or each in-process call leaves one more fd open.
    def count():
        return len(os.listdir("/proc/self/fd"))

    before = count()
    for _ in range(5):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["mu", "1/2"]) == 2
    monkeypatch.undo()
    assert "Broken pipe" in capsys.readouterr().err
    assert count() == before


def _run_on_a_closed_pipe(argv, closed, unbuffered):
    """Run the CLI with stdout, or stdout and stderr, on a pipe whose reader
    is closed; the runner's PYTHONUNBUFFERED must not choose the mode."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "topograph.cli", *argv], stdout=write_end,
            stderr=write_end if closed == "stdout-and-stderr" else subprocess.PIPE,
            env={**env, "PYTHONPATH": SRC}, timeout=60, check=False)
    finally:
        os.close(write_end)
