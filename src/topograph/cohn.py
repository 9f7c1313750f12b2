"""Cohn matrices: the SL(2,Z) shadow of the Markov fraction tree.

For each integer parameter a there is a matrix tree seeded by the pair
(A(a), B(a)) below and combined by matrix multiplication.  Every matrix in
it has determinant 1 and trace equal to three times its upper-right entry,
and the ratio e11/e12 of its top row recovers a + (the Markov fraction at
the same tree position).  verify_cohn_index sweeps a window of the tree and
checks all of that plus monotonicity, entry formulas, and, for a = 0, the
closed forms of the bottom row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DomainError, InvariantError
from .markov import MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT, springborn_mediant
from .rational import Mat2, farey_mediant, format_fraction
from .tree import descend_runs, enumerate_tree, locate_runs


@dataclass(frozen=True)
class CohnMatrix:
    """A matrix from the Cohn tree, tagged with its parameter and position.

    Construction re-checks the two defining invariants (determinant 1,
    trace = 3 * e12) so a corrupted matrix cannot masquerade as a Cohn one.
    """

    m: Mat2
    a: int
    t: Optional[Fraction] = field(default=None)

    def __post_init__(self):
        if self.m.det() != 1:
            raise InvariantError(f"determinant must be 1, got {self.m.det()} for {self.m}")
        if self.m.trace() != 3 * self.m.e12:
            raise InvariantError(
                f"trace {self.m.trace()} != 3 * e12 = {3 * self.m.e12} for {self.m}"
            )


def cohn_A(a: int) -> CohnMatrix:
    """Left seed of the parameter-a tree; sits at coordinate t = 0."""
    return CohnMatrix(Mat2(a, 1, 3 * a - a * a - 1, 3 - a), a, Fraction(0))


def cohn_B(a: int) -> CohnMatrix:
    """Right seed of the parameter-a tree; sits at coordinate t = 1."""
    return CohnMatrix(
        Mat2(2 * a + 1, 2, -2 * a * a + 4 * a + 2, 5 - 2 * a), a, Fraction(1)
    )


def cohn_at(t: Fraction, a: int = 0) -> CohnMatrix:
    """Cohn matrix at coordinate t in [0, 1] for parameter a.

    Boundaries return the seeds; interior coordinates multiply down the tree
    along locate_runs(t), one Mat2 power and product per run.  The tests
    compare it with the step-by-step Mat2 @ descend along locate(t); the
    index suite checks the enumerated Cohn tree against the Markov fractions.
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise DomainError(f"coordinate must lie in [0, 1], got {t}")
    if t == 0:
        return cohn_A(a)
    if t == 1:
        return cohn_B(a)
    m = descend_runs(cohn_A(a).m, cohn_B(a).m, Mat2.__matmul__, Mat2.__pow__, locate_runs(t))
    return CohnMatrix(m, a, t)


def cohn_index(c) -> Fraction:
    """Top-row ratio e11/e12; accepts a CohnMatrix or a bare Mat2."""
    m = c.m if isinstance(c, CohnMatrix) else c
    if m.e12 == 0:
        raise DomainError(f"index undefined: e12 = 0 in {m}")
    return Fraction(m.e11, m.e12)


def trace_map(c) -> int:
    """trace / 3, which the tree invariants force to equal e12 (a Markov number)."""
    m = c.m if isinstance(c, CohnMatrix) else c
    q, r = divmod(m.trace(), 3)
    if r:
        raise InvariantError(f"trace {m.trace()} is not divisible by 3 in {m}")
    if q != m.e12:
        raise InvariantError(f"trace/3 = {q} but e12 = {m.e12} in {m}")
    return q


# ============================================================
# tree-wide verification
# ============================================================

@dataclass
class IndexReport:
    """Outcome of an index-identity sweep: pass counts and first failure."""

    depth: int
    a_values: tuple
    nodes_checked: int
    checks: dict
    failures: int
    first_counterexample: Optional[dict]

    @property
    def ok(self) -> bool:
        return self.failures == 0


def verify_cohn_index(depth: int, a_values=(0,), *, parallel: bool = False) -> IndexReport:
    """Check the index identity over every node to the given depth.

    Per node t and parameter a: det = 1; trace = 3 * e12; e12 is the Markov
    denominator q at t; e11 = a*q + p for the Markov fraction p/q; the index
    e11/e12 equals a + p/q (so for a = 0 it is the Markov fraction itself);
    indexes are strictly increasing in t; and for a = 0 the bottom row obeys
    e22 = 3q - p and e21 = (3pq - p^2 - 1)/q with exact division.
    """
    a_values = tuple(a_values)
    farey_nodes = list(
        enumerate_tree(Fraction(0), Fraction(1), farey_mediant, depth, parallel=parallel)
    )
    markov_nodes = list(
        enumerate_tree(MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT, springborn_mediant, depth,
                       parallel=parallel)
    )

    checks: dict = {}
    failures = 0
    first: Optional[dict] = None

    def record(name, passed, a, path, detail):
        nonlocal failures, first
        if passed:
            checks[name] = checks.get(name, 0) + 1
        else:
            failures += 1
            if first is None:
                first = {"check": name, "a": a, "path": path or "-", "detail": detail}

    for a in a_values:
        cohn_nodes = enumerate_tree(cohn_A(a).m, cohn_B(a).m, Mat2.__matmul__, depth,
                                    parallel=parallel)
        indexed = []
        for fnode, mnode, cnode in zip(farey_nodes, markov_nodes, cohn_nodes):
            m = cnode.value
            t = fnode.value
            mf = mnode.value
            p, q = mf.numerator, mf.denominator
            record("det", m.det() == 1, a, cnode.path, f"det = {m.det()}")
            record("trace", m.trace() == 3 * m.e12, a, cnode.path,
                   f"trace = {m.trace()}, e12 = {m.e12}")
            record("top-row", (m.e11, m.e12) == (a * q + p, q), a, cnode.path,
                   f"top row {(m.e11, m.e12)}, expected {(a * q + p, q)}")
            idx = cohn_index(m)
            record("index", idx == a + mf, a, cnode.path,
                   f"index {format_fraction(idx)}, expected a + {format_fraction(mf)}")
            if a == 0:
                num = 3 * p * q - p * p - 1
                div, rem = divmod(num, q)
                record("bottom-row", rem == 0 and (m.e21, m.e22) == (div, 3 * q - p),
                       a, cnode.path,
                       f"bottom row {(m.e21, m.e22)}, expected ({num}/{q}, {3 * q - p})")
            indexed.append((t, idx, cnode.path))
        indexed.sort(key=lambda item: item[0])
        increasing = all(
            indexed[i][1] < indexed[i + 1][1] for i in range(len(indexed) - 1)
        )
        record("monotone", increasing, a, "-", "indexes not strictly increasing in t")

    return IndexReport(
        depth=depth,
        a_values=a_values,
        nodes_checked=len(farey_nodes),
        checks=checks,
        failures=failures,
        first_counterexample=first,
    )
