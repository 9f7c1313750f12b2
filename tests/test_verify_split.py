"""run_suites split across two processes, against the same suites in one.

Past verify._SPLIT_MIN_NODES, with two CPUs or more, a forked child runs the
requested FORKED_SUITES while the parent runs the rest.  Each test here
lowers that threshold to 0 where it wants a split at a small depth, and
compares with the in-process run: every report field but wall_time, the
order of the reports, the recorded corrupted-input reports, and what an
exception makes of the exit code.  A split that fails in any way, a child
that sends no reports because a suite raised, it exited or it was killed,
or a parent suite that raises, is redone by the in-process run of the whole
list, by the rule tree._on_two_cores states; a healthy child's suites never
run in the parent.  No child may outlive run_suites.
"""

import errno
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from itertools import product
from pathlib import Path

import pytest

from topograph import SUITES, errors, run_suites, verify
from topograph.cli import main
from topograph.errors import CombineError, DomainError, InvariantError
from topograph.verify import FORKED_SUITES

from test_verify_counts import COUNTEREXAMPLES, CORRUPTIONS

def _fields(report) -> dict:
    fields = asdict(report)
    del fields["wall_time"]
    return fields


@pytest.fixture
def forced_split(monkeypatch):
    """Split at any depth on two CPUs; returns the pids that called os.fork."""
    monkeypatch.setattr(verify, "_SPLIT_MIN_NODES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("depth", range(9))
def test_a_split_gives_the_in_process_reports(forced_split, depth):
    """Every suite, in its own order and reversed, against each suite run alone."""
    alone = {name: _fields(run_suites([name], depth)[0]) for name in SUITES}
    assert forced_split == []  # one suite is one group: no split
    for names in (list(SUITES), list(SUITES)[::-1]):
        assert [_fields(r) for r in run_suites(names, depth)] == [alone[n] for n in names]
        _no_child_left()
    assert len(forced_split) == 2


def test_every_mixed_suite_list_keeps_its_order(forced_split):
    """Each list with a suite of each group, in a shuffled order, at depth 1."""
    alone = {name: _fields(run_suites([name], 1)[0]) for name in SUITES}
    rng = random.Random(0x5EED)
    count = 0
    for mask in product((False, True), repeat=len(SUITES)):
        names = [name for name, keep in zip(SUITES, mask) if keep]
        if not set(names) & set(FORKED_SUITES) or set(names) <= set(FORKED_SUITES):
            continue
        rng.shuffle(names)
        assert [_fields(r) for r in run_suites(names, 1)] == [alone[n] for n in names], names
        count += 1
    assert count == len(forced_split) == (2 ** 4 - 1) ** 2
    _no_child_left()


@pytest.mark.parametrize("suite", list(SUITES))
def test_one_group_alone_does_not_fork(forced_split, suite, capsys):
    assert main(["verify", "--suites", suite, "--depth", "2"]) == 0
    assert forced_split == []


def test_one_cpu_runs_in_process(forced_split, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert all(r.ok for r in run_suites(list(SUITES), 3))
    assert forced_split == []


def test_the_split_starts_at_depth_8(monkeypatch):
    """511 nodes: below, the second core saves no more than a fork costs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    run_suites(["words", "relations"], 7)
    assert forks == []
    assert all(r.ok for r in run_suites(["words", "relations"], 8))
    assert forks == [1]
    _no_child_left()


@pytest.mark.parametrize("suite", list(CORRUPTIONS))
def test_corrupted_input_gives_the_recorded_report_under_a_split(
        forced_split, monkeypatch, suite):
    depth, a_values, attr, corrupt = CORRUPTIONS[suite]
    partner = "monotonicity" if suite in FORKED_SUITES else "homomorphism"
    monkeypatch.setattr(verify, attr, corrupt(getattr(verify, attr)))
    in_process = run_suites([suite], depth, a_values)[0]
    report, _ = run_suites([suite, partner], depth, a_values)
    assert len(forced_split) == 1
    assert _fields(report) == _fields(in_process)
    want = COUNTEREXAMPLES[suite]
    assert report.checks == want["checks"]
    assert report.failures == want["failures"]
    assert report.first_counterexample == want["first_counterexample"]


def _raising(error):
    def suite(window):
        raise error

    return suite


def _verify(capsys) -> tuple:
    """cli.main's exit code and stderr for two suites, one of each group."""
    code = main(["verify", "--suites", "relations,words", "--depth", "2"])
    return code, capsys.readouterr().err


class _Unpicklable(ValueError):
    def __init__(self):
        super().__init__("planted")
        self.hook = lambda: None


@pytest.mark.parametrize("error", [
    DomainError("planted"), InvariantError("planted"), CombineError("LR", "planted"),
    ZeroDivisionError("planted"), _Unpicklable(),
], ids=lambda error: type(error).__name__)
@pytest.mark.parametrize("side", ["words", "relations"], ids=["in-child", "in-parent"])
def test_an_exception_exits_as_it_does_in_process(monkeypatch, capsys, error, side):
    monkeypatch.setitem(SUITES, side, _raising(error))
    code, err = _verify(capsys)
    assert code == (2 if isinstance(error, ValueError) else 3)
    monkeypatch.setattr(verify, "_SPLIT_MIN_NODES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    split_code, split_err = _verify(capsys)
    assert (split_code, split_err.splitlines()[-1]) == (code, err.splitlines()[-1])
    if code == 3:
        # Exit 3 prints the traceback, which must reach the suite line that
        # raised: the parent's own run of the suite, when it ran in the child.
        frame = next(line for line in err.splitlines() if line.endswith(", in suite"))
        assert frame in split_err.splitlines()
    _no_child_left()


def _in_the_child(act, suite):
    """suite, which in a process other than this one first does act()."""
    parent = os.getpid()

    def wrapped(window):
        if os.getpid() != parent:
            act()
        return suite(window)

    return wrapped


def test_a_parent_that_raises_kills_the_child(forced_split, monkeypatch):
    monkeypatch.setitem(SUITES, "words", _in_the_child(lambda: time.sleep(60), SUITES["words"]))
    monkeypatch.setitem(SUITES, "relations", _raising(DomainError("planted")))
    started = time.perf_counter()
    with pytest.raises(DomainError, match="planted"):
        run_suites(["words", "relations"], 2)
    assert time.perf_counter() - started < 30
    _no_child_left()


def test_the_first_listed_suite_that_raises_is_raised(forced_split, monkeypatch, capsys):
    """A forked suite and a parent suite that both raise: the split raises
    the error one process raises, that of the suite listed first, since the
    parent's failure reruns the whole list in process."""
    monkeypatch.setitem(SUITES, "words", _raising(ZeroDivisionError("planted")))
    monkeypatch.setitem(SUITES, "relations", _raising(ValueError("planted")))
    for names, error in ((["words", "relations"], ZeroDivisionError),
                         (["relations", "words"], ValueError)):
        with pytest.raises(error):
            run_suites(names, 2)
        _no_child_left()
    assert len(forced_split) == 2
    assert main(["verify", "--suites", "words,relations", "--depth", "2"]) == 3
    assert main(["verify", "--suites", "relations,words", "--depth", "2"]) == 2
    _no_child_left()


@pytest.mark.parametrize("act", [
    lambda: os._exit(0),
    lambda: os._exit(7),
    lambda: os.kill(os.getpid(), signal.SIGKILL),
], ids=["exits-0", "exits-7", "killed"])
def test_a_child_that_sends_nothing_leaves_its_suites_to_the_parent(
        forced_split, monkeypatch, act):
    names = ["relations", "words", "homomorphism"]
    alone = [_fields(run_suites([name], 3)[0]) for name in names]
    monkeypatch.setitem(SUITES, "words", _in_the_child(act, SUITES["words"]))
    assert [_fields(r) for r in run_suites(names, 3)] == alone
    assert len(forced_split) == 1
    _no_child_left()


def test_a_healthy_split_runs_each_forked_suite_in_the_child_alone(forced_split, monkeypatch):
    # A fallback that fired on a healthy split would double the child's work.
    alone = [_fields(run_suites([name], 3)[0]) for name in SUITES]
    pids = []
    for name in FORKED_SUITES:
        monkeypatch.setitem(SUITES, name, lambda window, suite=SUITES[name]:
                            pids.append(os.getpid()) or suite(window))
    assert [_fields(r) for r in run_suites(list(SUITES), 3)] == alone
    assert len(forced_split) == 1
    assert pids == []  # the child's appends stay in the child
    _no_child_left()


def _untimed(out: str) -> list:
    return [{key: value for key, value in report.items() if key != "wall_time"}
            for report in json.loads(out)]


def test_a_fork_that_cannot_start_gives_the_in_process_reports(monkeypatch, capsys):
    argv = ["verify", "--depth", "9", "--format", "json"]
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(argv) == 0
    want = _untimed(capsys.readouterr().out)
    # Only os.fork is made to fail, with EAGAIN as when no process can start.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = []

    def fork():
        calls.append(1)
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    fds = len(os.listdir("/proc/self/fd"))
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (_untimed(out), err) == (want, "")
    assert calls == [1]
    assert len(os.listdir("/proc/self/fd")) == fds
    _no_child_left()


def test_a_fresh_interpreter_splits_without_a_warning(monkeypatch):
    """verify at depth 8, split, started the way users start it: -X dev
    shows a ResourceWarning from the pipe's files or a fork
    DeprecationWarning, and -W error makes either fail the run."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "topograph.cli",
         "verify", "--depth", "8", "--format", "json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert [(r["suite"], r["checks"], r["failures"]) for r in json.loads(proc.stdout)] == [
        (r.suite, r.checks, r.failures) for r in run_suites(list(SUITES), 8)]


ERRORS = [value for value in vars(errors).values()
          if isinstance(value, type) and value.__module__ == errors.__name__]


def test_every_error_class_is_listed():
    assert {cls.__name__ for cls in ERRORS} == {
        "TopographError", "DomainError", "PreconditionError", "InvariantError",
        "DepthLimitError", "CombineError"}
