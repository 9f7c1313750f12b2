"""Generic walker for the topograph's dual binary tree.

Every structure in this package (Farey fractions, Markov fractions, Markov
numbers, Cohn matrices, continued fraction words) lives on the same infinite
binary tree.  A node is addressed by a path over the alphabet {L, R} starting
from the root; the node's value is combine(left, right) applied to the pair
of parent regions flanking it.  Stepping L keeps the left parent and the
current node becomes the new right parent (L moves toward the left seed);
stepping R is the mirror image.

The walker is agnostic about the value type: it just threads the pair of
parents and calls the supplied combine rule, wrapping any failure in a
CombineError that records where in the tree it happened.  It holds two
walkers over the same nodes: _walk, breadth-first, is the reference, and
_preorder, depth-first, holds only O(depth) regions.  Pre-order reaches each
level from left to right, which is breadth-first order within that level,
so the exports stream from _preorder and regroup its nodes by level.

A node is a function of its two parent regions alone, so _preorder's two
parts, the root with its L subtree and the R subtree, can be walked by two
processes and joined level by level.  _split holds the one split rule, for
the exports and verify alike, and the one failure rule: a split that raises
is redone whole in this process (_on_two_cores is the package's one fork).

Point queries take the run-length route instead: value_at reads the path of
a coordinate off its continued fraction as runs of equal steps (locate_runs)
and crosses each run with one power of an associative combine
(descend_runs).  mirrored turns a tree addressed by mirrored paths, such as
the word tree, into one addressed like the fraction trees.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap
from typing import Any, Callable, Iterator

from .errors import CombineError, DepthLimitError, DomainError, PreconditionError, shown
from .rational import check_int, check_rational, partial_quotients

# Hard ceiling on enumeration depth, a backstop only: each level has twice
# the nodes of the one above and about 2.8x the exported bytes.  At depth 14
# a JSON export, split over two processes, wrote 3-118 MB by kind (cf the
# most) in 0.15-0.93 s at a flat peak of 20 MB in the parent and 15 MB in
# its child (markov, 37 MB: a median 0.31 s against 0.48 s in one process;
# BENCH_a9a1ee7.json), and verify, split too, peaked at 71 MB in the parent
# and 115 MB in its child (2-core VM, CPython 3.11.7); the CLI's default cap
# is 12.
HARD_DEPTH_CAP = 24

# Hard ceiling on q * m for a point query at t = p/q, where m is the
# companion repetition count (1 for every other query).  Word queries build
# 2qm letters and their values grow to about 1.39 bits per letter; at the cap
# the CLI answers a periodization or a companion in about 0.5 s and tens of
# MB, about half of it spent writing the answer out in decimal.
HARD_POINT_CAP = 2**17

PATH_ALPHABET = frozenset("LR")


def _check_path(path: str) -> str:
    if not isinstance(path, str) or not PATH_ALPHABET.issuperset(path):
        raise DomainError(f"path must be a string over 'L'/'R', got {shown(path)}")
    return path


def format_path(path: str) -> str:
    """Paths serialize as themselves, with '-' standing for the empty path."""
    return path if path else "-"


def parse_path(text: str) -> str:
    s = text.strip()
    if s == "-":
        return ""
    return _check_path(s)


def mirror(path: str) -> str:
    """Swap L and R; an involution on paths."""
    return _check_path(path).translate(str.maketrans("LR", "RL"))


@dataclass(frozen=True)
class Node:
    """One tree node: its path, the two parent regions, and its value."""

    path: str
    left: Any
    right: Any
    value: Any


def _combine_at(combine, left, right, path):
    try:
        return combine(left, right)
    except Exception as exc:
        raise CombineError(path, str(exc)) from exc


def descend(seed_left, seed_right, combine: Callable, path: str) -> Node:
    """Walk one path from the seed pair and return the node reached.

    The empty path addresses the root node combine(seed_left, seed_right).
    """
    _check_path(path)
    left, right = seed_left, seed_right
    for i, step in enumerate(path):
        value = _combine_at(combine, left, right, path[:i])
        if step == "L":
            right = value
        else:
            left = value
    return Node(path, left, right, _combine_at(combine, left, right, path))


def check_depth(depth: int) -> None:
    """Refuse a tree depth that is not an int in [0, HARD_DEPTH_CAP].

    A non-int, a bool included, raises DomainError, a negative depth
    PreconditionError and one above the cap, read at call time,
    DepthLimitError.
    """
    if check_int(depth, "depth") < 0:
        raise PreconditionError(f"depth must be >= 0, got {shown(depth, str)}")
    if depth > HARD_DEPTH_CAP:
        raise DepthLimitError(f"depth {shown(depth, str)} exceeds cap {HARD_DEPTH_CAP}")


def check_point_size(size: int) -> None:
    """Refuse a point query whose size q * m exceeds HARD_POINT_CAP.

    The message names the size by its bits: it may have any number of digits.
    """
    if size > HARD_POINT_CAP:
        raise DepthLimitError(f"point query size of {size.bit_length()} bits exceeds cap "
                              f"q * m <= {HARD_POINT_CAP}")


def locate_runs(t: Fraction) -> list:
    """Path of t in the Farey tree as runs [(step, k), ...], from t's quotients.

    With t = [0; a1, a2, ..., an] the Stern-Brocot path from 1/1 is
    L^a1 R^a2 L^a3 ... with the last exponent an - 1.  This tree is rooted at
    1/2, one L below 1/1, so a1 loses 1 as well; empty runs are dropped.
    Costs O(n) divisions, not O(path steps).  Coordinates with denominator
    beyond HARD_POINT_CAP raise DepthLimitError before any work.
    """
    t = check_rational(t, "coordinate")
    if not 0 < t < 1:
        raise DomainError(f"locate needs 0 < t < 1, got {shown(t, str)}")
    check_point_size(t.denominator)
    quotients = partial_quotients(t.denominator, t.numerator)
    quotients[0] -= 1
    quotients[-1] -= 1
    return [("LR"[i % 2], k) for i, k in enumerate(quotients) if k]


def locate(t: Fraction) -> str:
    """Path of the fraction t in the Farey tree seeded by (0/1, 1/1).

    Spells out locate_runs(t); only 0 < t < 1 sits inside this tree.  The
    tests check that descend along the result with farey_mediant reaches t.
    """
    return "".join(step * k for step, k in locate_runs(t))


def descend_runs(seed_left, seed_right, combine: Callable, power: Callable, runs) -> Any:
    """Value at the end of a run-length path, for an associative combine.

    From the parent pair (X, Y) the node is X.Y; a run of k L steps leads to
    the pair (X, X^k.Y) and a run of k R steps to (X.Y^k, Y), with power(X, k)
    standing for X^k (Mat2.__pow__ for matrices, tuple repetition for words).
    So a path of n runs costs n powers and n + 1 combines.  descend is the
    step-by-step reference.  Combine failures propagate unwrapped.
    """
    left, right = seed_left, seed_right
    for step, k in runs:
        if step == "L":
            right = combine(power(left, k), right)
        else:
            left = combine(left, power(right, k))
    return combine(left, right)


def value_at(t: Fraction, seed_left, seed_right, combine: Callable, power: Callable) -> Any:
    """Value at coordinate t in [0, 1] of the tree grown from the seed pair.

    The seeds sit at t = 0 and t = 1; an interior t is the node at the end of
    descend_runs along locate_runs(t), so combine must be associative and
    power(X, k) its k-th power.
    """
    t = check_rational(t, "coordinate")
    if not 0 <= t <= 1:
        raise DomainError(f"coordinate must lie in [0, 1], got {shown(t, str)}")
    if t == 0:
        return seed_left
    if t == 1:
        return seed_right
    return descend_runs(seed_left, seed_right, combine, power, locate_runs(t))


def mirrored(seed_left, seed_right, combine: Callable) -> tuple:
    """Seed pair and combine rule of the mirror image of a tree.

    Swapping the seeds and the combine's arguments gives the tree that holds
    at path P the value the original holds at mirror(P).  The reversed rule
    of an associative combine is again associative, so descend_runs and
    value_at accept it.
    """
    return seed_right, seed_left, lambda x, y: combine(y, x)


def _walk(seed_left, seed_right, combine: Callable, depth: int) -> Iterator[tuple]:
    """Yield (path, left, right, value) for every node to depth, breadth-first.

    The reference walker: enumerate_tree wraps its tuples in Node, and an
    export's nodes and from_json grow their carried regions through it.  Its
    queue holds a whole level.  The depth is not checked.
    """
    queue = deque([("", seed_left, seed_right)])
    while queue:
        path, left, right = queue.popleft()
        value = _combine_at(combine, left, right, path)
        yield path, left, right, value
        if len(path) < depth:
            queue.append((path + "L", left, value))
            queue.append((path + "R", value, right))


def _preorder(seed_left, seed_right, combine: Callable, depth: int,
              path: str = "") -> Iterator[tuple]:
    """Yield (path, left, right, value) for every node to depth, depth-first.

    Pre-order, L before R: the same nodes and combines as _walk, with the
    same CombineError paths, from a stack of at most depth + 1 pending
    nodes, so only O(depth) regions are live.  Within each level the nodes
    come in _walk's order.  Given a path, it walks the subtree at that path,
    whose parent regions are seed_left and seed_right.  The depth is not
    checked.
    """
    stack = [(path, seed_left, seed_right)]
    while stack:
        path, left, right = stack.pop()
        value = _combine_at(combine, left, right, path)
        yield path, left, right, value
        if len(path) < depth:
            stack.append((path + "R", value, right))
            stack.append((path + "L", left, value))


def _root_and_left(seed_left, seed_right, combine: Callable, depth: int) -> Iterator[tuple]:
    """_preorder's first part: the root, then the root's L subtree."""
    value = _combine_at(combine, seed_left, seed_right, "")
    yield "", seed_left, seed_right, value
    if depth:
        yield from _preorder(seed_left, value, combine, depth, "L")


def _right_subtree(seed_left, seed_right, combine: Callable, depth: int) -> Iterator[tuple]:
    """_preorder's second part: the root's R subtree, grown from (root, seed_right).

    Within each level its nodes come after the L subtree's, so the two parts,
    joined level by level, are the tree in _walk's order.
    """
    if depth:
        root = _combine_at(combine, seed_left, seed_right, "")
        yield from _preorder(root, seed_right, combine, depth, "R")


def _split(depth: int, min_nodes: int, halves: Callable, alone: Callable) -> Any:
    """merge(*_on_two_cores(parent, child)) for (parent, child, merge) =
    halves(), or alone(): the package's one split rule.

    A tree of depth splits when it has min_nodes nodes or more and this
    process may run on two CPUs or more (os.sched_getaffinity); otherwise
    halves is never called.  A split that raises an Exception anywhere, in
    halves, the fork, either half or merge, is dropped and alone() redoes
    all of its work in this process: the one authority on what an input
    gives, errors included.  A KeyboardInterrupt propagates, never redone.
    """
    if (2 ** (depth + 1) - 1 >= min_nodes and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        try:
            parent, child, merge = halves()
            return merge(*_on_two_cores(parent, child))
        except Exception:
            pass  # redone in process below
    return alone()


def _on_two_cores(parent: Callable, child: Callable) -> tuple:
    """(parent(), child()), with child() run by a forked child process.

    The package's one fork, called only by _split, which redoes a split
    that raises here.  The child sends child()'s value back pickled through
    a pipe and exits with status 0, or exits with status 1 if child()
    raises, by os._exit, so it never returns into the caller's stack or
    flushes the stdio buffers it inherited.  An os.fork that raises does so
    with the pipe closed, a parent() that raises does so once the child is
    killed and reaped, and a child that did not exit 0 after sending a
    value gives ChildProcessError.  The child is reaped in every case, and
    killed first if the parent's side raised, KeyboardInterrupt included.
    """
    import pickle  # only a split pays for these imports
    import signal

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            payload = pickle.dumps(child())
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            local = parent()
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if status or not payload:
        raise ChildProcessError(f"the split's child did not exit 0 after sending a value "
                                f"(wait status {status})")
    return local, pickle.loads(payload)


def enumerate_tree(seed_left, seed_right, combine: Callable, depth: int) -> Iterator[Node]:
    """Yield all nodes with path length <= depth in breadth-first order.

    Order is deterministic: by level, L before R within a level.  check_depth
    refuses a bad depth before any work is done.
    """
    check_depth(depth)
    yield from starmap(Node, _walk(seed_left, seed_right, combine, depth))
