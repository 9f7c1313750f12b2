"""Tree writers split across two processes, against the same writers in one.

From export._SPLIT_MIN_NODES nodes on, with two CPUs or more, the parent
walks the root and its L subtree and a forked child the root's R subtree,
and the parent writes each channel as its own part, then the child's.  Each
test here lowers that threshold to 0 where it wants a split at a small
depth, and compares byte for byte with the in-process output: written to
--out, to stdout through the CLI, and returned as text.  A split that fails
in any way, a child that sends nothing because its walk raised, it exited or
it was killed, or a walk that raises in the parent, which kills the child,
is redone by the in-process walk of the whole tree, by the rule
tree._on_two_cores states: it writes the in-process bytes or raises as one
process does, and then --out is never created.  No child may outlive a
writer.
"""

import errno
import gc
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from topograph import TREE_KINDS, build_export, export, render, to_json
from topograph.cli import main
from topograph.errors import CombineError
from topograph.export import EXPORT_FORMATS, KINDS
from topograph.tree import _right_subtree, _root_and_left, _walk

CASES = ([(kind, 0) for kind in TREE_KINDS if kind != "cohn"]
         + [("cohn", a) for a in (-2, 1, 3, 2**64 - 1)])


@pytest.fixture
def forced_split(monkeypatch):
    """Split at any depth on two CPUs; returns the pids that called os.fork."""
    monkeypatch.setattr(export, "_SPLIT_MIN_NODES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _in_process(monkeypatch, call):
    """call(), with every tree written in this process."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return call()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _argv(kind, depth, a, fmt) -> list:
    return (["tree", "--kind", kind, "--depth", str(depth), "--format", fmt]
            + ([f"--a={a}"] if KINDS[kind].takes_a else []))


def test_the_halves_joined_by_level_are_the_breadth_first_walk():
    spec = KINDS["markov"]
    seeds = spec.seeds(0)
    for depth in range(7):
        nodes = list(_root_and_left(*seeds, spec.combine, depth))
        nodes += list(_right_subtree(*seeds, spec.combine, depth))
        nodes.sort(key=lambda node: len(node[0]))  # stable: the L half first in each level
        assert nodes == list(_walk(*seeds, spec.combine, depth))


@pytest.mark.parametrize("kind,a", CASES)
def test_a_split_writes_the_in_process_bytes(forced_split, monkeypatch, capsysbinary,
                                             tmp_path, kind, a):
    """Every format at depths 0-9: to --out, to stdout, and as text."""
    target = tmp_path / "tree.out"
    for depth in range(10):
        tree = build_export(kind, depth, a)
        for fmt in EXPORT_FORMATS:
            want = _in_process(monkeypatch, lambda: render(tree, fmt)).encode()
            assert render(tree, fmt).encode() == want, (fmt, depth)
            argv = _argv(kind, depth, a, fmt)
            assert main(argv) == 0
            assert capsysbinary.readouterr().out == want, (fmt, depth)
            assert main(argv + ["--out", str(target)]) == 0
            assert target.read_bytes() == want, (fmt, depth)
    assert len(forced_split) == 10 * len(EXPORT_FORMATS) * 3
    _no_child_left()


def test_one_cpu_writes_in_process(forced_split, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for fmt in EXPORT_FORMATS:
        render(build_export("farey", 6), fmt)
    assert forced_split == []


def test_the_split_starts_at_depth_12(monkeypatch):
    """8,191 nodes: below, the second core saves no more than a fork costs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    text = render(build_export("farey", 11), "csv")
    assert forks == []
    assert render(build_export("farey", 12), "csv").startswith(text)
    assert forks == [1]
    _no_child_left()


def test_a_split_parent_holds_a_fraction_of_the_file(forced_split, monkeypatch):
    # The parent copies the child's text out of the child's file chunk by
    # chunk, so its peak is some levels' worth of limit, not the R half.
    monkeypatch.setattr(export, "_SPILL_BYTES", 1 << 12)
    sizes = []

    class Sink:
        def write(self, data: bytes) -> int:
            sizes.append(len(data))
            return len(data)

    tree = build_export("markov", 11)
    tracemalloc.start()
    try:
        to_json(tree, Sink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) == len(_in_process(monkeypatch, lambda: to_json(tree)).encode())
    assert peak < sum(sizes) / 4, (peak, sum(sizes))
    _no_child_left()


def _farey_acting(monkeypatch, act, where):
    """The farey tree, whose combine calls act(in_child) at the node whose
    value is where; in_child tells a forked child from this process."""
    spec, parent = KINDS["farey"], os.getpid()

    def combine(left, right):
        value = spec.combine(left, right)
        if value == where:
            act(os.getpid() != parent)
        return value

    monkeypatch.setitem(KINDS, "farey", replace(spec, combine=combine))


def _exits(code):
    def act(in_child):
        if in_child:
            os._exit(code)

    return act


def _killed(in_child):
    if in_child:
        os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("act", [_exits(0), _exits(7), _killed],
                         ids=["exits-0", "exits-7", "killed"])
@pytest.mark.parametrize("spill", [False, True], ids=["held", "spilled"])
@pytest.mark.parametrize("fmt", EXPORT_FORMATS)
def test_a_child_that_sends_nothing_leaves_its_half_to_the_parent(
        forced_split, monkeypatch, tmp_path, fmt, spill, act):
    # Spilled, the child has written part of its half to its file before it
    # stops, and the in-process walk that redoes the split reads none of it.
    if spill:
        monkeypatch.setattr(export, "_SPILL_BYTES", 1)
    tree = build_export("farey", 5)
    want = _in_process(monkeypatch, lambda: render(tree, fmt))
    _farey_acting(monkeypatch, act, Fraction(3, 5))  # the RL node, in the child's half
    assert render(tree, fmt) == want
    target = tmp_path / "tree.out"
    assert main(_argv("farey", 5, 0, fmt) + ["--out", str(target)]) == 0
    assert target.read_text() == want
    assert len(forced_split) == 2
    _no_child_left()


def test_a_failed_split_drops_its_spools_before_the_in_process_walk(forced_split, monkeypatch):
    # So the text the parent's half held is freed before the walk that redoes it.
    live = []

    def act(in_child):
        if in_child:
            os._exit(7)
        gc.collect()
        live.append(sum(isinstance(o, export._Spool) for o in gc.get_objects()))

    _farey_acting(monkeypatch, act, Fraction(3, 5))  # RL: in the child's half and the redo
    render(build_export("farey", 5), "csv")
    assert live == [1]
    assert len(forced_split) == 1
    _no_child_left()


def _raises(in_child):
    raise ValueError("planted failure")


@pytest.mark.parametrize("where,path", [(Fraction(2, 5), "LR"), (Fraction(3, 5), "RL")],
                         ids=["in-parent", "in-child"])
@pytest.mark.parametrize("fmt", EXPORT_FORMATS)
def test_a_walk_that_raises_raises_as_in_process(forced_split, monkeypatch, capsys, tmp_path,
                                                fmt, where, path):
    _farey_acting(monkeypatch, _raises, where)
    tree = build_export("farey", 5)
    with pytest.raises(CombineError) as in_process:
        _in_process(monkeypatch, lambda: render(tree, fmt))
    with pytest.raises(CombineError) as split:
        render(tree, fmt)
    assert (split.value.path, str(split.value)) == (in_process.value.path, str(in_process.value))
    assert split.value.path == path
    target = tmp_path / "tree.out"
    assert main(_argv("farey", 5, 0, fmt) + ["--out", str(target)]) == 3
    assert "planted failure" in capsys.readouterr().err
    assert not target.exists()
    assert len(forced_split) == 2
    _no_child_left()


def test_a_parent_that_raises_kills_the_child(forced_split, monkeypatch, tmp_path):
    """The child sleeps in its half while the parent's half raises: the
    parent kills the child rather than wait for it."""
    spec, parent = KINDS["farey"], os.getpid()

    def combine(left, right):
        value = spec.combine(left, right)
        if value == Fraction(3, 5) and os.getpid() != parent:  # RL, in the child
            time.sleep(60)
        if value == Fraction(2, 5):  # LR, in the parent
            raise ValueError("planted failure")
        return value

    monkeypatch.setitem(KINDS, "farey", replace(spec, combine=combine))
    target = tmp_path / "tree.out"
    started = time.perf_counter()
    assert main(_argv("farey", 5, 0, "json") + ["--out", str(target)]) == 3
    assert time.perf_counter() - started < 30
    assert not target.exists()
    assert len(forced_split) == 1
    _no_child_left()


def test_a_fork_that_cannot_start_writes_the_in_process_bytes(monkeypatch, tmp_path):
    # Only os.fork is made to fail, with EAGAIN as when no process can start.
    argv = _argv("markov", 12, 0, "csv") + ["--out", str(tmp_path / "tree.csv")]
    want = _in_process(monkeypatch, lambda: render(build_export("markov", 12), "csv")).encode()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = []

    def fork():
        calls.append(1)
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    fds = len(os.listdir("/proc/self/fd"))
    assert main(argv) == 0
    assert (tmp_path / "tree.csv").read_bytes() == want
    assert calls == [1]
    assert len(os.listdir("/proc/self/fd")) == fds
    _no_child_left()


def test_a_split_whose_temp_file_cannot_be_made_writes_the_in_process_bytes(
        monkeypatch, tmp_path):
    """No level of farey at depth 12 passes _SPILL_BYTES, so one process
    needs no temp file, and a split that cannot make the child's is redone
    in process, forking nothing."""
    import tempfile

    tree = build_export("farey", 12)
    want = _in_process(monkeypatch, lambda: render(tree, "csv"))
    assert len(want.encode()) == 261510
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls, forks, real_fork = [], [], os.fork

    def no_space():
        calls.append(1)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_space)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    fds = len(os.listdir("/proc/self/fd"))
    assert render(tree, "csv") == want
    target = tmp_path / "tree.csv"
    assert main(_argv("farey", 12, 0, "csv") + ["--out", str(target)]) == 0
    assert target.read_bytes() == want.encode()
    assert (calls, forks) == ([1, 1], [])
    assert len(os.listdir("/proc/self/fd")) == fds
    _no_child_left()


def test_a_fresh_interpreter_splits_without_a_warning(monkeypatch):
    """A depth-12 export, split, started the way users start it: -X dev
    shows a ResourceWarning from a file never closed, and -W error makes it
    fail the run."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "topograph.cli",
         "tree", "--kind", "markov", "--depth", "12", "--format", "json"],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120, check=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    want = _in_process(monkeypatch, lambda: to_json(build_export("markov", 12)))
    assert proc.stdout == want.encode()
