"""The shared tree walker: descent, lookup, enumeration, mirroring, the one
fork helper's contract, and the one split rule built on it."""

import errno
import os
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topograph import (
    CombineError,
    DepthLimitError,
    DomainError,
    PreconditionError,
    cf_concat,
    descend,
    enumerate_tree,
    export,
    farey_mediant,
    format_path,
    locate,
    mirror,
    mirrored,
    parse_path,
    tree,
)

paths = st.text(alphabet="LR", max_size=12)


def farey_node(path):
    return descend(Fraction(0), Fraction(1), farey_mediant, path)


def test_descend_root():
    node = farey_node("")
    assert node.value == Fraction(1, 2)
    assert (node.left, node.right) == (Fraction(0), Fraction(1))


def test_descend_examples():
    assert farey_node("L").value == Fraction(1, 3)
    assert farey_node("R").value == Fraction(2, 3)
    assert farey_node("LRR").value == Fraction(3, 7)
    assert farey_node("LRR").left == Fraction(2, 5)
    assert farey_node("LRR").right == Fraction(1, 2)


def test_descend_rejects_junk_path():
    with pytest.raises(DomainError):
        farey_node("LRX")


def test_locate_examples():
    assert locate(Fraction(1, 2)) == ""
    assert locate(Fraction(1, 3)) == "L"
    assert locate(Fraction(3, 7)) == "LRR"
    assert locate(Fraction(5, 8)) == "RLR"


def test_locate_domain():
    for t in (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(DomainError):
            locate(t)


def test_enumerate_counts_and_order():
    nodes = list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 2))
    assert [n.path for n in nodes] == ["", "L", "R", "LL", "LR", "RL", "RR"]
    assert [n.value for n in nodes] == [
        Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
        Fraction(1, 4), Fraction(2, 5), Fraction(3, 5), Fraction(3, 4),
    ]


@pytest.mark.parametrize("depth", [0, 1, 5])
def test_enumerate_node_count(depth):
    nodes = list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, depth))
    assert len(nodes) == 2 ** (depth + 1) - 1


def test_locate_inverts_descend():
    for node in enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 8):
        assert locate(node.value) == node.path


def test_parents_are_neighbors_everywhere():
    from topograph import is_farey_neighbors

    for node in enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 8):
        assert node.left < node.value < node.right
        assert is_farey_neighbors(node.left, node.right)


def test_depth_guard(monkeypatch):
    with pytest.raises(DepthLimitError):
        list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 25))
    # The cap is read at call time.
    monkeypatch.setattr(tree, "HARD_DEPTH_CAP", 5)
    with pytest.raises(DepthLimitError):
        list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 6))
    assert len(list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, 5))) == 63
    with pytest.raises(PreconditionError):
        list(enumerate_tree(Fraction(0), Fraction(1), farey_mediant, -1))


def test_combine_failures_carry_path():
    def grumpy(left, right):
        if left == Fraction(1, 3):
            raise ValueError("boom")
        return farey_mediant(left, right)

    with pytest.raises(CombineError) as exc_info:
        descend(Fraction(0), Fraction(1), grumpy, "LR")
    assert exc_info.value.path == "LR"

    with pytest.raises(CombineError):
        list(enumerate_tree(Fraction(0), Fraction(1), grumpy, 3))


def _by_level(nodes) -> list:
    # A stable sort keeps each level in the order the walk reached it.
    return sorted(nodes, key=lambda node: len(node[0]))


WALKED_TREES = [(kind, 0) for kind in export.TREE_KINDS] + [("cohn", 2)]


@pytest.mark.parametrize("kind,a", WALKED_TREES, ids=[f"{k}-a{a}" for k, a in WALKED_TREES])
def test_preorder_regrouped_by_level_is_the_breadth_first_walk(kind, a):
    spec = export.KINDS[kind]
    for depth in range(11):
        walked = list(tree._walk(*spec.seeds(a), spec.combine, depth))
        assert _by_level(tree._preorder(*spec.seeds(a), spec.combine, depth)) == walked, depth


def test_preorder_is_depth_first_with_one_combine_per_node():
    calls = []

    def counted(left, right):
        calls.append((left, right))
        return farey_mediant(left, right)

    order = [node[0] for node in tree._preorder(Fraction(0), Fraction(1), counted, 3)]
    assert order == ["", "L", "LL", "LLL", "LLR", "LR", "LRL", "LRR",
                     "R", "RL", "RLL", "RLR", "RR", "RRL", "RRR"]
    assert len(calls) == 15


@pytest.mark.parametrize("bad", ["", "L", "LR", "RRL"])
def test_both_walkers_raise_at_the_failing_path(bad):
    planted = farey_node(bad).value

    def failing(left, right):
        value = farey_mediant(left, right)
        if value == planted:
            raise ValueError("planted")
        return value

    for walk in (tree._walk, tree._preorder):
        with pytest.raises(CombineError) as exc_info:
            list(walk(Fraction(0), Fraction(1), failing, 4))
        assert exc_info.value.path == bad, walk.__name__


def test_path_serialization():
    assert format_path("") == "-"
    assert format_path("LRR") == "LRR"
    assert parse_path("-") == ""
    assert parse_path(" LR ") == "LR"
    with pytest.raises(DomainError):
        parse_path("LQ")


def test_mirror_examples():
    assert mirror("") == ""
    assert mirror("LRR") == "RLL"


@given(paths)
def test_mirror_is_an_involution(path):
    assert mirror(mirror(path)) == path


@given(paths)
def test_mirror_swaps_subtrees(path):
    # the mirrored Farey tree (seeds swapped around reflection t -> 1 - t)
    # holds the reflected fraction at the mirrored path
    node = farey_node(path)
    twin = farey_node(mirror(path))
    assert twin.value == 1 - node.value


@given(paths)
def test_mirrored_tree_holds_the_value_at_the_mirrored_path(path):
    # Concatenation does not commute, so a combine that kept its argument
    # order would give other words.
    seeds = (2, 2), (1, 1)
    node = descend(*mirrored(*seeds, cf_concat), path)
    assert node.value == descend(*seeds, cf_concat, mirror(path)).value


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_healthy_split_returns_both_values():
    # child() runs in another process, whose value comes back pickled.
    fds = _open_fds()
    local, (child_pid, value) = tree._on_two_cores(os.getpid, lambda: (os.getpid(), [1, None]))
    assert local == os.getpid() != child_pid
    assert value == [1, None]
    assert _open_fds() == fds
    _no_child_left()


def _raise():
    raise ValueError("planted")


@pytest.mark.parametrize("child", [
    _raise,
    lambda: os._exit(0),
    lambda: os._exit(7),
    lambda: os.kill(os.getpid(), signal.SIGKILL),
], ids=["raises", "exits-0", "exits-7", "killed"])
def test_a_child_that_sends_no_value_raises_child_process_error(child):
    fds = _open_fds()
    with pytest.raises(ChildProcessError, match="wait status"):
        tree._on_two_cores(lambda: "parent", child)
    assert _open_fds() == fds
    _no_child_left()


@pytest.mark.parametrize("error", [ValueError("planted"), KeyboardInterrupt()],
                         ids=["exception", "interrupt"])
def test_a_parent_that_raises_raises_its_own_error_with_the_child_killed(error):
    def parent():
        raise error

    fds = _open_fds()
    started = time.perf_counter()
    with pytest.raises(type(error)) as raised:
        tree._on_two_cores(parent, lambda: time.sleep(60))
    assert raised.value is error
    assert time.perf_counter() - started < 30
    assert _open_fds() == fds
    _no_child_left()


def test_a_fork_that_cannot_start_raises_with_the_pipe_closed(monkeypatch):
    # Only os.fork is made to fail: no process is started to provoke it.
    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    fds = _open_fds()
    with pytest.raises(BlockingIOError) as raised:
        tree._on_two_cores(lambda: "parent", lambda: "child")
    assert raised.value.errno == errno.EAGAIN
    assert _open_fds() == fds
    _no_child_left()


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs in the affinity; returns the pids that called os.fork."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _halves(parent=lambda: "parent", child=lambda: "child", calls=None):
    """A halves() that records its call and merges the two values into a tuple."""
    def halves():
        if calls is not None:
            calls.append("halves")
        return parent, child, lambda local, theirs: ("merged", local, theirs)

    return halves


@pytest.mark.parametrize("depth,min_nodes,affinity", [
    (2, 8, {0, 1}),
    (3, 8, {0}),
    (3, 8, None),
], ids=["below-min-nodes", "one-cpu", "no-affinity"])
def test_a_split_not_tried_never_calls_halves(two_cpus, monkeypatch, depth, min_nodes,
                                               affinity):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
    calls = []
    assert tree._split(depth, min_nodes, _halves(calls=calls), lambda: "alone") == "alone"
    assert calls == []
    assert two_cpus == []


def test_a_healthy_split_returns_what_merge_returns(two_cpus):
    # Depth 3 has 15 nodes, the threshold here.
    def alone():
        raise AssertionError("alone ran after a healthy split")

    merged, local, (child_pid, value) = tree._split(
        3, 15, _halves(os.getpid, lambda: (os.getpid(), "child")), alone)
    assert (merged, value) == ("merged", "child")
    assert local == os.getpid() != child_pid
    assert two_cpus == [os.getpid()]
    _no_child_left()


def _halves_raises():
    raise OSError(errno.ENOSPC, "No space left on device")


def _fork_fails(monkeypatch):
    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("failure,forks", [
    (lambda monkeypatch: _halves_raises, 0),
    (lambda monkeypatch: _fork_fails(monkeypatch) or _halves(), 0),
    (lambda monkeypatch: _halves(parent=_raise), 1),
    (lambda monkeypatch: _halves(child=lambda: os._exit(0)), 1),
    (lambda monkeypatch: _halves(child=lambda: os._exit(7)), 1),
    (lambda monkeypatch: _halves(child=lambda: os.kill(os.getpid(), signal.SIGKILL)), 1),
], ids=["halves-raises", "fork-eagain", "parent-raises", "child-exits-0", "child-exits-7",
        "child-killed"])
def test_a_failed_split_returns_what_alone_returns(two_cpus, monkeypatch, failure, forks):
    halves = failure(monkeypatch)
    fds = _open_fds()
    assert tree._split(3, 15, halves, lambda: "alone") == "alone"
    assert len(two_cpus) == forks
    assert _open_fds() == fds
    _no_child_left()


def test_an_interrupt_in_the_split_propagates_with_the_child_reaped(two_cpus):
    def parent():
        raise KeyboardInterrupt

    def alone():
        raise AssertionError("alone redid an interrupted split")

    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        tree._split(3, 15, _halves(parent, lambda: time.sleep(60)), alone)
    assert time.perf_counter() - started < 30
    assert two_cpus == [os.getpid()]
    _no_child_left()
