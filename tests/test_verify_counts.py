"""Verify counts pinned to recorded values, the shared window, and the failure path.

GOLDEN holds every suite's per-check pass counts at depths 0-8 with the
default Cohn parameters, and COUNTEREXAMPLES the report of one suite with one
input corrupted; both were recorded from the suites as they stood before they
were rebuilt on one shared window, when each suite enumerated its own trees.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from topograph import (
    Mat2,
    SUITES,
    VerifyReport,
    cf_concat,
    convergent_matrix,
    run_suites,
)
from topograph import tree, verify
from topograph.cohn import cohn_A, cohn_B
from topograph.markov import springborn_mediant
from topograph.verify import COMPANION_COORDINATES, DEFAULT_A_VALUES

GOLDEN = {
    "relations": [
        {"cross-left": 1, "cross-right": 1, "flip-left": 1,
         "flip-right": 1, "markov-equation": 1, "mediant-divisor": 1},
        {"cross-left": 3, "cross-right": 3, "flip-left": 3,
         "flip-right": 3, "markov-equation": 3, "mediant-divisor": 3},
        {"cross-left": 7, "cross-right": 7, "flip-left": 7,
         "flip-right": 7, "markov-equation": 7, "mediant-divisor": 7},
        {"cross-left": 15, "cross-right": 15, "flip-left": 15,
         "flip-right": 15, "markov-equation": 15, "mediant-divisor": 15},
        {"cross-left": 31, "cross-right": 31, "flip-left": 31,
         "flip-right": 31, "markov-equation": 31, "mediant-divisor": 31},
        {"cross-left": 63, "cross-right": 63, "flip-left": 63,
         "flip-right": 63, "markov-equation": 63, "mediant-divisor": 63},
        {"cross-left": 127, "cross-right": 127, "flip-left": 127,
         "flip-right": 127, "markov-equation": 127, "mediant-divisor": 127},
        {"cross-left": 255, "cross-right": 255, "flip-left": 255,
         "flip-right": 255, "markov-equation": 255, "mediant-divisor": 255},
        {"cross-left": 511, "cross-right": 511, "flip-left": 511,
         "flip-right": 511, "markov-equation": 511, "mediant-divisor": 511},
    ],
    "index": [
        {"bottom-row": 1, "det": 6, "index": 6, "monotone": 6, "top-row": 6, "trace": 6},
        {"bottom-row": 3, "det": 18, "index": 18, "monotone": 6, "top-row": 18, "trace": 18},
        {"bottom-row": 7, "det": 42, "index": 42, "monotone": 6, "top-row": 42, "trace": 42},
        {"bottom-row": 15, "det": 90, "index": 90, "monotone": 6, "top-row": 90, "trace": 90},
        {"bottom-row": 31, "det": 186, "index": 186, "monotone": 6, "top-row": 186, "trace": 186},
        {"bottom-row": 63, "det": 378, "index": 378, "monotone": 6, "top-row": 378, "trace": 378},
        {"bottom-row": 127, "det": 762, "index": 762, "monotone": 6, "top-row": 762, "trace": 762},
        {"bottom-row": 255, "det": 1530, "index": 1530,
         "monotone": 6, "top-row": 1530, "trace": 1530},
        {"bottom-row": 511, "det": 3066, "index": 3066,
         "monotone": 6, "top-row": 3066, "trace": 3066},
    ],
    "words": [
        {"letters": 1, "value": 1},
        {"letters": 3, "value": 3},
        {"letters": 7, "value": 7},
        {"letters": 15, "value": 15},
        {"letters": 31, "value": 31},
        {"letters": 63, "value": 63},
        {"letters": 127, "value": 127},
        {"letters": 255, "value": 255},
        {"letters": 511, "value": 511},
    ],
    "periodization": [
        {"closed-form": 1, "quadratic": 1},
        {"closed-form": 3, "quadratic": 3},
        {"closed-form": 7, "quadratic": 7},
        {"closed-form": 15, "quadratic": 15},
        {"closed-form": 31, "quadratic": 31},
        {"closed-form": 63, "quadratic": 63},
        {"closed-form": 127, "quadratic": 127},
        {"closed-form": 255, "quadratic": 255},
        {"closed-form": 511, "quadratic": 511},
    ],
    "companions": [
        {"above": 32, "closer": 28, "power": 32},
        {"above": 32, "closer": 28, "power": 32},
        {"above": 32, "closer": 28, "power": 32},
        {"above": 32, "closer": 28, "power": 32},
        {"above": 32, "closer": 28, "power": 32},
        {"above": 32, "closer": 28, "power": 32},
        {"above": 32, "closer": 28, "power": 32},
        {"above": 32, "closer": 28, "power": 32},
        {"above": 32, "closer": 28, "power": 32},
    ],
    "monotonicity": [
        {"increasing": 2, "range": 3},
        {"increasing": 4, "range": 5},
        {"increasing": 8, "range": 9},
        {"increasing": 16, "range": 17},
        {"increasing": 32, "range": 33},
        {"increasing": 64, "range": 65},
        {"increasing": 128, "range": 129},
        {"increasing": 256, "range": 257},
        {"increasing": 512, "range": 513},
    ],
    "distinctness": [
        {"distinct": 1, "triple-route": 1},
        {"distinct": 3, "triple-route": 3},
        {"distinct": 7, "triple-route": 7},
        {"distinct": 15, "triple-route": 15},
        {"distinct": 31, "triple-route": 31},
        {"distinct": 63, "triple-route": 40},
        {"distinct": 127, "triple-route": 40},
        {"distinct": 255, "triple-route": 40},
        {"distinct": 511, "triple-route": 40},
    ],
    "homomorphism": [
        {"parity": 400, "product": 400},
        {"parity": 400, "product": 400},
        {"parity": 400, "product": 400},
        {"parity": 400, "product": 400},
        {"parity": 400, "product": 400},
        {"parity": 400, "product": 400},
        {"parity": 400, "product": 400},
        {"parity": 400, "product": 400},
        {"parity": 400, "product": 400},
    ],
}


@pytest.mark.parametrize("depth", range(9))
def test_counts_match_the_recorded_window(depth):
    reports = run_suites(list(SUITES), depth)
    assert [r.suite for r in reports] == list(GOLDEN)
    for report in reports:
        assert report.checks == GOLDEN[report.suite][depth], report.suite
        assert report.ok and report.failures == 0, report.first_counterexample


def test_one_window_per_call(monkeypatch):
    """Each tree is enumerated once, each Cohn tree once per a, none past depth.

    The word tree's convergent matrices are carried down one product tree.
    The Farey tree is not enumerated: monotonicity finds a coordinate only
    for a counterexample's text.
    """
    depth = 4
    calls = []
    real = verify.enumerate_tree

    def spy(seed_left, seed_right, combine, d):
        # A tree is told apart by its seeds and its root: the word trees come
        # mirrored (seeds swapped, combine reversed), and the mirrored product
        # tree has the seeds of the a = 2 Cohn tree, since
        # convergent_matrix((1, 1)) == cohn_A(2).m.  Matrix trees are seeded
        # with entry tuples.
        calls.append((seed_left, seed_right, combine(seed_left, seed_right), d))
        return real(seed_left, seed_right, combine, d)

    monkeypatch.setattr(verify, "enumerate_tree", spy)
    # With the cap at depth, asking for one more level raises DepthLimitError.
    monkeypatch.setattr(tree, "HARD_DEPTH_CAP", depth)
    reports = run_suites(list(SUITES), depth)
    assert all(r.ok for r in reports)

    assert max(d for *_, d in calls) <= depth
    trees = Counter(call[:3] for call in calls)
    half = Fraction(1, 2)
    assert trees.pop((Fraction(0), half, springborn_mediant(Fraction(0), half))) == 1
    assert trees.pop(((1, 1), (2, 2), cf_concat((2, 2), (1, 1)))) == 1
    for a in DEFAULT_A_VALUES:
        a_seed, b_seed = cohn_A(a).m, cohn_B(a).m
        assert trees.pop((tuple(a_seed), tuple(b_seed), tuple(a_seed @ b_seed))) == 1
    m11, m22 = convergent_matrix((1, 1)), convergent_matrix((2, 2))
    assert trees.pop((tuple(m11), tuple(m22), tuple(m22 @ m11))) == 1
    assert not trees


def test_passing_checks_build_no_text(monkeypatch):
    calls = Counter()
    for name in ("format_fraction", "_convergents"):
        def spy(*args, _real=getattr(verify, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(verify, name, spy)
    depth = 5
    assert all(r.ok for r in run_suites(list(SUITES), depth))
    # Only the companions suite's params format fractions.
    assert calls["format_fraction"] == len(COMPANION_COORDINATES)
    # The words suite evaluates each node's word once.
    assert calls["_convergents"] == 2 ** (depth + 1) - 1


def test_counterexample_text_is_built_once():
    built = []

    def detail():
        built.append(True)
        return "text"

    report = VerifyReport("synthetic", 0)
    report.record("a", True, "L", detail)
    report.record("b", False, "LR", detail)
    report.record("b", False, "R", detail)
    report.record("c", False, "", detail)
    report.record("d", False, "", "plain text")
    assert len(built) == 1
    assert report.checks == {"a": 1}
    assert report.failed == {"b": 2, "c": 1, "d": 1}
    assert report.failures == 4 and not report.ok
    assert report.first_counterexample == {"check": "b", "path": "LR", "detail": "text"}


# ============================================================
# one corrupted input per suite
# ============================================================

def _longer_expansion(real):
    return lambda x: real(x) + (1, 1)


def _bad_b_seed_at_a_1(real):
    return lambda a: SimpleNamespace(m=Mat2(3, 2, 4, 4)) if a == 1 else real(a)


def _shorter_vieta_walk(real):
    return lambda path: real(path[:-1])


def _moved_node_at_29(real):
    def mediant(lo, hi):
        value = real(lo, hi)
        return Fraction(13, 31) if value == Fraction(12, 29) else value

    return mediant


def _wrong_limit_at_5(real):
    return lambda f: real(Fraction(1, 3)) if f.denominator == 5 else real(f)


# suite: (depth, a_values, attribute of verify, corruption)
CORRUPTIONS = {
    "words": (4, (0,), "cf_expand_even", _longer_expansion),
    "index": (4, (0, 1, 2), "cohn_B", _bad_b_seed_at_a_1),
    "distinctness": (6, (0,), "vieta_walk", _shorter_vieta_walk),
    "relations": (4, (0,), "springborn_mediant", _moved_node_at_29),
    "periodization": (4, (0,), "markov_irrationality", _wrong_limit_at_5),
}

COUNTEREXAMPLES = {
    "words": {
        "checks": {"value": 31},
        "failures": 31,
        "first_counterexample": {
            "check": "letters", "path": "-",
            "detail": "tree gives (2, 2, 1, 1), expansion gives (2, 2, 1, 1, 1, 1)"},
    },
    "index": {
        "checks": {"bottom-row": 31, "det": 62, "index": 62, "monotone": 3,
                   "top-row": 62, "trace": 62},
        "failures": 124,
        "first_counterexample": {"check": "det", "a": 1, "path": "-", "detail": "det = 4"},
    },
    "distinctness": {
        "checks": {"distinct": 127},
        "failures": 40,
        "first_counterexample": {
            "check": "triple-route", "path": "LLRR",
            "detail": "Vieta walk gives (34, 13, 1325)"},
    },
    "relations": {
        "checks": {"cross-left": 20, "cross-right": 19, "flip-left": 16, "flip-right": 22,
                   "markov-equation": 16, "mediant-divisor": 16},
        "failures": 77,
        "first_counterexample": {
            "check": "flip-left", "path": "-",
            "detail": "expected 13/31, formulas give 12/29"},
    },
    "periodization": {
        "checks": {"closed-form": 30, "quadratic": 30},
        "failures": 2,
        "first_counterexample": {
            "check": "closed-form", "path": "-",
            "detail": "periodization QuadraticIrrational(P=9, B=1, Q=10, D=221), "
                      "formula QuadraticIrrational(P=5, B=1, Q=6, D=77)"},
    },
}


@pytest.mark.parametrize("suite", list(CORRUPTIONS))
def test_corrupted_input_gives_the_recorded_report(monkeypatch, suite):
    depth, a_values, attr, corrupt = CORRUPTIONS[suite]
    attempted = run_suites([suite], depth, a_values)[0].checks
    monkeypatch.setattr(verify, attr, corrupt(getattr(verify, attr)))
    report = run_suites([suite], depth, a_values)[0]
    want = COUNTEREXAMPLES[suite]
    assert report.checks == want["checks"]
    assert report.failures == want["failures"]
    assert report.first_counterexample == want["first_counterexample"]
    # failed names exactly the checks that lost passes, with the lost count
    assert report.failed == {name: n - report.checks.get(name, 0)
                             for name, n in attempted.items()
                             if n != report.checks.get(name, 0)}


def _last_letter_dropped(real):
    return lambda word: real(word[:-1])


def _empty_word(real):
    return lambda word: real(())  # (1, 0, 0, 1): q = 0


def _q_prev_for_q(real):
    def convergents(word):
        p, p_prev, q, q_prev = real(word)
        return p, p_prev, q_prev, q

    return convergents


@pytest.mark.parametrize("fault,text", [
    (_last_letter_dropped, "word evaluates to 7/3, expected 12/5"),
    (_empty_word, "word evaluates to undefined (q = 0), expected 12/5"),
    (_q_prev_for_q, "word evaluates to 4/1, expected 12/5"),
], ids=["last-letter-dropped", "q=0", "q-prev-for-q"])
def test_words_value_fault_is_recorded(monkeypatch, fault, text):
    monkeypatch.setattr(verify, "_convergents", fault(verify._convergents))
    report = run_suites(["words"], 3)[0]
    assert report.checks == {"letters": 15}
    assert report.failed == {"value": 15}
    assert report.first_counterexample == {"check": "value", "path": "-", "detail": text}


def test_depth_10_counts_match_the_benchmark_gate():
    """The verify-window benchmark fails an op whose counts differ from these."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())["verify"]
    reports = run_suites(list(SUITES), 10)
    assert {r.suite: {"checks": r.checks, "failures": r.failures} for r in reports} == expected
