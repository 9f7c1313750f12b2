"""Cross-verification suites tying the five structures together.

run_suites builds one Window per call, which caches the breadth-first Markov
tree to the requested depth, and every tree suite reads it.  The words and
periodization suites each walk one more tree beside it, in the Markov tree's
order and held by nothing: the word tree, and the product tree that carries
each word's convergent matrix down the word tree as the product of its
parents' matrices, the concatenation rule.  So the convergent kernel runs
once per node, in the words suite, the periodization suite reads the carried
product, and each is checked against the Markov fraction.  The index and
monotonicity suites read the order in t off the window's leaves and compare
ratios by integer cross products, without building Fractions.

Each suite checks one family of identities, counting passes and failures per
named check and recording the first counterexample verbatim.  Suites never
assert; they return a VerifyReport, and the CLI turns a failing report into
exit code 1.

The two groups share nothing but the Markov window, so from depth 8 (511
nodes) on, run_suites runs them on two cores by tree._split's rule: a
forked child runs the word-tree suites (words, periodization) and the two
that read no tree (companions, homomorphism) on the Markov window it
inherits, and the parent runs relations, index, monotonicity and
distinctness.  The child's reports come back pickled, so counts,
counterexamples and their order are those of one process; only the
per-suite times, and a peak RSS read in the parent, are each process's own.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

from .cftree import (
    compare_gap,
    fixed_point,
    left_companion,
    markov_cf,
    markov_irrationality,
    qi_compare,
    qi_satisfies,
)
from .cohn import check_cohn_parameter, cohn_A, cohn_B
from .errors import DepthLimitError, DomainError, shown
from .export import KINDS
from .markov import MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT, springborn_mediant, vieta_walk
from .rational import (
    _convergents,
    cf_concat,
    cf_expand_even,
    convergent_matrix,
    format_fraction,
)
from .tree import (
    _split,
    check_depth,
    descend,
    enumerate_tree,
    format_path,
    mirrored,
)

DEFAULT_A_VALUES = (-2, -1, 0, 1, 2, 3)
# Hard ceiling on the number of Cohn parameters: each is one more Cohn tree
# walk in the index suite, about 1 s at depth 14 (2-core VM), so an index
# run at depth 14 on 48 parameters near 2**64 took 52 s.
HARD_A_VALUES_CAP = 48
COMPANION_COORDINATES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5))
COMPANION_MAX_REPEAT = 8
HOMOMORPHISM_CASES = 400
RNG_SEED = 0x5EED
# The suites run_suites hands to a forked child when it splits: the two that
# walk the word trees, and the two that read no tree.
FORKED_SUITES = ("words", "periodization", "companions", "homomorphism")
# The smallest window, in nodes, that run_suites splits: with every suite
# on a 2-core VM, in 20 interleaved pairs of fresh processes per depth, the
# split won 13 at depth 7 (255 nodes), by medians within the noise, and 19
# at depth 8 (511 nodes), 20 at 9 and 20 at 10, by 26-42%, 13-15% and
# 22-28% (BENCH_200d43f.json, "threshold").
_SPLIT_MIN_NODES = 511


@dataclass
class VerifyReport:
    """Pass and failure counts per named check, and the first counterexample."""

    suite: str
    depth: int
    params: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    first_counterexample: Optional[dict] = None
    wall_time: float = 0.0

    @property
    def failures(self) -> int:
        return sum(self.failed.values())

    @property
    def ok(self) -> bool:
        return not self.failed

    def record(self, name: str, passed: bool, path: str = "", detail="", **context):
        """Count one check at a tree path ('' for none).

        detail is the counterexample text, or a callable returning it; it is
        only evaluated for the first failure, so passing checks build no text.
        context (the index suite's a) is added to the counterexample.
        """
        if passed:
            self.checks[name] = self.checks.get(name, 0) + 1
            return
        self.failed[name] = self.failed.get(name, 0) + 1
        if self.first_counterexample is None:
            self.first_counterexample = {
                "check": name, **context, "path": format_path(path),
                "detail": detail() if callable(detail) else detail,
            }


class Window:
    """The breadth-first window of the fraction tree to a given depth.

    markov, the Node list of the Markov fraction tree, is the one tree the
    window caches.  mirrored_values(kind) walks KINDS[kind]'s tree anew on
    each call, through tree.mirrored, so its values come in markov's order:
    the word at each node for "cf", and for "irrational" (before its lift)
    the word's convergent matrix as an entry tuple, carried down the word
    tree by rational._mul rather than computed from the word.  The window's
    leaves run left to right in t, and the first leaf's left, then each
    leaf's value and right, lists every node and both seeds in increasing t.
    a_values are the index suite's Cohn parameters, already checked by
    run_suites.  No tree is enumerated beyond depth.
    """

    def __init__(self, depth: int, a_values=DEFAULT_A_VALUES):
        self.depth = depth
        self.a_values = a_values

    @cached_property
    def markov(self) -> list:
        # Grown with this module's springborn_mediant, the rule suite_relations
        # computes each node's children with, so a change to it reaches both.
        return list(enumerate_tree(MARKOV_SEED_LEFT, MARKOV_SEED_RIGHT, springborn_mediant,
                                   self.depth))

    def mirrored_values(self, kind: str) -> Iterator:
        spec = KINDS[kind]
        tree = mirrored(*spec.seeds(0), spec.combine)
        return (node.value for node in enumerate_tree(*tree, self.depth))


# ============================================================
# suites
# ============================================================

def suite_relations(window: Window) -> VerifyReport:
    """Bilinear identities around every node of the fraction tree.

    Writing the five fractions as p1/q1, p2/q2 (parents), p3/q3 (node),
    p1'/q1' (right child), p2'/q2' (left child), the checks are:

      cross-left      p2*q3 - p3*q2 == q1
      cross-right     p3*q1 - p1*q3 == q2
      mediant-divisor p2*q1 - p1*q2 == (q1^2 + q2^2)/q3 == 3*q1*q2 - q3
      flip-left       p1' == (p2*q2 + p3*q3)/q1,  q1' == (q2^2 + q3^2)/q1
      flip-right      p2' == (p1*q1 + p3*q3)/q2,  q2' == (q1^2 + q3^2)/q2
      markov-equation q1^2 + q2^2 + q3^2 == 3*q1*q2*q3

    All divisions must be exact; an inexact division is reported as a failed
    check, never raised.
    """
    report = VerifyReport("relations", window.depth)
    for node in window.markov:
        check_relations(report, node.path, node.left, node.right, node.value,
                        springborn_mediant(node.value, node.right),
                        springborn_mediant(node.left, node.value))
        q1, q2, q3 = (node.left.denominator, node.right.denominator,
                      node.value.denominator)
        report.record("markov-equation",
                      q1 * q1 + q2 * q2 + q3 * q3 == 3 * q1 * q2 * q3,
                      node.path, lambda: f"denominators {(q1, q2, q3)}")
    return report


def _exact_div(num: int, den: int):
    q, r = divmod(num, den)
    return (q, True) if r == 0 else (None, False)


def check_relations(report: VerifyReport, path: str, left: Fraction, right: Fraction,
                    node: Fraction, child_right: Fraction, child_left: Fraction) -> None:
    """Record suite_relations' identities, but markov-equation, at one node.

    child_right is the node's R child (the flip that discards left),
    child_left its L child.
    """
    p1, q1 = left.numerator, left.denominator
    p2, q2 = right.numerator, right.denominator
    p3, q3 = node.numerator, node.denominator
    pr, qr = child_right.numerator, child_right.denominator
    pl, ql = child_left.numerator, child_left.denominator

    report.record("cross-left", p2 * q3 - p3 * q2 == q1, path,
                  lambda: f"p2*q3 - p3*q2 = {p2 * q3 - p3 * q2}, q1 = {q1}")
    report.record("cross-right", p3 * q1 - p1 * q3 == q2, path,
                  lambda: f"p3*q1 - p1*q3 = {p3 * q1 - p1 * q3}, q2 = {q2}")

    det = p2 * q1 - p1 * q2
    med, exact = _exact_div(q1 * q1 + q2 * q2, q3)
    report.record("mediant-divisor", exact and det == med and det == 3 * q1 * q2 - q3, path,
                  lambda: f"det = {det}, (q1^2+q2^2)/q3 = {med if exact else 'inexact'}, "
                          f"3*q1*q2 - q3 = {3 * q1 * q2 - q3}")

    num_r, exact_n = _exact_div(p2 * q2 + p3 * q3, q1)
    den_r, exact_d = _exact_div(q2 * q2 + q3 * q3, q1)
    report.record("flip-left", exact_n and exact_d and (num_r, den_r) == (pr, qr), path,
                  lambda: f"expected {pr}/{qr}, formulas give "
                          f"{num_r if exact_n else 'inexact'}/{den_r if exact_d else 'inexact'}")

    num_l, exact_n = _exact_div(p1 * q1 + p3 * q3, q2)
    den_l, exact_d = _exact_div(q1 * q1 + q3 * q3, q2)
    report.record("flip-right", exact_n and exact_d and (num_l, den_l) == (pl, ql), path,
                  lambda: f"expected {pl}/{ql}, formulas give "
                          f"{num_l if exact_n else 'inexact'}/{den_l if exact_d else 'inexact'}")


def suite_index(window: Window) -> VerifyReport:
    """Cohn matrix structure and the index identity, for each parameter a.

    Per node t and parameter a: det = 1; trace = 3 * e12; e12 is the Markov
    denominator q at t; e11 = a*q + p for the Markov fraction p/q; the index
    e11/e12 equals a + p/q (so for a = 0 it is the Markov fraction itself);
    indexes are strictly increasing in t; and for a = 0 the bottom row obeys
    e22 = 3q - p and e21 = (3pq - p^2 - 1)/q with exact division.  Indexes
    are compared as integer cross products; a matrix with e12 = 0 has no
    index and fails both index checks.
    """
    report = VerifyReport("index", window.depth, params={"a_values": list(window.a_values)})
    for a in window.a_values:
        # Seeded through this module's cohn_A and cohn_B, so a test can plant
        # a matrix that is not a Cohn matrix and see every check catch it.
        cohn_nodes = enumerate_tree(tuple(cohn_A(a).m), tuple(cohn_B(a).m),
                                    KINDS["cohn"].combine, window.depth)
        leaves = []  # each leaf's top row and its right region's, in increasing t
        for node, cnode in zip(window.markov, cohn_nodes):
            p, q = node.value.numerator, node.value.denominator
            (e11, e12, e21, e22), path = cnode.value, cnode.path
            det, trace = e11 * e22 - e12 * e21, e11 + e22
            report.record("det", det == 1, path, lambda: f"det = {det}", a=a)
            report.record("trace", trace == 3 * e12, path,
                          lambda: f"trace = {trace}, e12 = {e12}", a=a)
            report.record("top-row", e11 == a * q + p and e12 == q, path,
                          lambda: f"top row {(e11, e12)}, expected {(a * q + p, q)}", a=a)
            report.record("index", e12 != 0 and e11 * q == (a * q + p) * e12, path,
                          lambda: f"index {_ratio_text(e11, e12, 'e12')}, "
                                  f"expected a + {format_fraction(node.value)}", a=a)
            if a == 0:
                num = 3 * p * q - p * p - 1
                div, rem = divmod(num, q)
                report.record("bottom-row", rem == 0 and (e21, e22) == (div, 3 * q - p),
                              path, lambda: f"bottom row {(e21, e22)}, "
                                            f"expected ({num}/{q}, {3 * q - p})", a=a)
            if len(path) == window.depth:
                leaves += ((e11, e12), cnode.right[:2])
        # The nodes' indexes in increasing t, as (e11, e12) with e12 > 0 or
        # None for e12 = 0; the last region, the right seed, is no node.
        ordered = [(u, v) if v > 0 else (-u, -v) if v else None for u, v in leaves[:-1]]
        increasing = None not in ordered and all(
            u1 * v2 < u2 * v1 for (u1, v1), (u2, v2) in zip(ordered, ordered[1:]))
        report.record("monotone", increasing, "", "indexes not strictly increasing in t", a=a)
    return report


def _ratio_text(num: int, den: int, den_name: str) -> str:
    return format_fraction(Fraction(num, den)) if den else f"undefined ({den_name} = 0)"


def suite_words(window: Window) -> VerifyReport:
    """Word tree vs direct expansion: same letters, same value, every node.

    value compares the kernel's p_k, q_k with the reduced target as integers:
    they are coprime and q_k > 0, so equal pairs are equal values.
    """
    report = VerifyReport("words", window.depth)
    for node, word in zip(window.markov, window.mirrored_values("cf")):
        target = 2 + node.value
        expanded = cf_expand_even(target)
        report.record("letters", word == expanded, node.path,
                      lambda: f"tree gives {word}, expansion gives {expanded}")
        p, _, q, _ = _convergents(word)
        report.record("value", (p, q) == (target.numerator, target.denominator), node.path,
                      lambda: f"word evaluates to {_ratio_text(p, q, 'q')}, "
                              f"expected {format_fraction(target)}")
    return report


def suite_periodization(window: Window) -> VerifyReport:
    """Periodized word equals the closed-form irrational, node by node.

    Both checks read the word's carried convergent matrix: its fixed point
    is the periodization, and the closed form must solve its quadratic.
    """
    report = VerifyReport("periodization", window.depth)
    for node, m in zip(window.markov, window.mirrored_values("irrational")):
        got = fixed_point(m)
        want = markov_irrationality(node.value)
        report.record("closed-form", got == want, node.path,
                      lambda: f"periodization {got}, formula {want}")
        pk, pk1, qk, qk1 = m
        report.record("quadratic", qi_satisfies(want, qk, qk1 - pk, -pk1),
                      node.path, "closed form fails the fixed-point quadratic")
    return report


def suite_companions(window: Window) -> VerifyReport:
    """Repeated words approach the periodization from above, monotonically."""
    report = VerifyReport("companions", window.depth,
                          params={"coordinates": [format_fraction(t) for t in COMPANION_COORDINATES],
                                  "max_repeat": COMPANION_MAX_REPEAT})
    for t in COMPANION_COORDINATES:
        word = markov_cf(t)
        base = convergent_matrix(word)
        target = fixed_point(base)
        prev = None
        for m in range(1, COMPANION_MAX_REPEAT + 1):
            approx = left_companion(t, m)

            def label(what):
                return lambda: f"t={format_fraction(t)}, m={m}: {what}"

            report.record("above", qi_compare(approx, target) == 1, "",
                          label("approximant not above the limit"))
            report.record("power", convergent_matrix(word * m) == base ** m, "",
                          label("convergent matrix is not the m-th power"))
            if prev is not None:
                report.record("closer", compare_gap(approx, prev, target) == -1, "",
                              label("gap did not shrink"))
            prev = approx
    return report


def suite_monotonicity(window: Window) -> VerifyReport:
    """The coordinate-to-fraction map is a strictly increasing bijection."""
    report = VerifyReport("monotonicity", window.depth)
    # The window and both seeds in increasing t, as (leaf, region) pairs.
    leaves = window.markov[2 ** window.depth - 1:]
    regions = [(leaves[0], "left")] + [(leaf, side) for leaf in leaves
                                       for side in ("value", "right")]
    values = [getattr(leaf, side) for leaf, side in regions]
    farey = KINDS["farey"]

    def t_text(k: int) -> str:
        # Coordinate of values[k], only ever needed for a counterexample.
        leaf, side = regions[k]
        return farey.text(getattr(descend(*farey.seeds(0), farey.combine, leaf.path), side))

    for k, (v1, v2) in enumerate(zip(values, values[1:])):
        report.record("increasing",
                      v1.numerator * v2.denominator < v2.numerator * v1.denominator, "",
                      lambda: f"{format_fraction(v1)} at t={t_text(k)} not below "
                              f"{format_fraction(v2)} at t={t_text(k + 1)}")
    for v in values:
        report.record("range", 0 <= 2 * v.numerator <= v.denominator, "",
                      lambda: f"{format_fraction(v)} outside [0, 1/2]")
    return report


def suite_distinctness(window: Window) -> VerifyReport:
    """Markov numbers from the enumeration window are pairwise distinct.

    Distinctness of tree values for all depths is an open conjecture; this
    confirms it holds on the enumerated window, and doubles as a cross-check
    that two routes to the numbers (weighted-mediant denominators and the
    Vieta walk) agree on a sample of up to 40 nodes.
    """
    report = VerifyReport("distinctness", window.depth)
    nodes = window.markov
    seen: dict = {}
    for node in nodes:
        q = node.value.denominator
        report.record("distinct", q not in seen, node.path,
                      lambda: f"Markov number {q} repeats at {seen.get(q)} and "
                              f"{format_path(node.path)}")
        seen.setdefault(q, format_path(node.path))
    rng = random.Random(RNG_SEED)
    sample = rng.sample(nodes, min(40, len(nodes)))
    for node in sample:
        triple = vieta_walk(node.path).as_tuple()
        report.record("triple-route",
                      triple == (node.left.denominator, node.right.denominator,
                                 node.value.denominator),
                      node.path, lambda: f"Vieta walk gives {triple}")
    return report


def suite_homomorphism(window: Window) -> VerifyReport:
    """Concatenation-to-product homomorphism and determinant parity, randomized."""
    report = VerifyReport("homomorphism", window.depth,
                          params={"cases": HOMOMORPHISM_CASES, "seed": RNG_SEED})
    rng = random.Random(RNG_SEED)

    def random_word(even: bool) -> tuple:
        n = rng.randrange(1, 13)
        if even != (n % 2 == 0):
            n += 1
        return tuple(rng.randrange(1, 10) for _ in range(n))

    for case in range(HOMOMORPHISM_CASES):
        u, v = random_word(even=True), random_word(even=True)
        report.record("product",
                      convergent_matrix(cf_concat(u, v))
                      == convergent_matrix(u) @ convergent_matrix(v),
                      "", lambda: f"case {case}: words {u} and {v}")
        w = random_word(even=bool(case % 2))
        report.record("parity", convergent_matrix(w).det() == (-1) ** len(w),
                      "", lambda: f"case {case}: word {w}")
    return report


SUITES: dict = {
    "relations": suite_relations,
    "index": suite_index,
    "words": suite_words,
    "periodization": suite_periodization,
    "companions": suite_companions,
    "monotonicity": suite_monotonicity,
    "distinctness": suite_distinctness,
    "homomorphism": suite_homomorphism,
}


def run_suites(names, depth: int, a_values=DEFAULT_A_VALUES) -> list:
    """Run the named suites (in listed order) on one shared window.

    Every argument is checked before any suite runs: the depth by
    tree.check_depth and each Cohn parameter by cohn.check_cohn_parameter,
    more than HARD_A_VALUES_CAP Cohn parameters raise DepthLimitError, and
    names or a_values that is one string or no collection, an empty list,
    an unknown or repeated name, a repeated Cohn parameter or, when index
    runs, no Cohn parameter at all raises DomainError.

    When names holds suites of both groups, a window of _SPLIT_MIN_NODES
    nodes or more is split by tree._split's rule: a forked child runs the
    named FORKED_SUITES on the window it inherits, the parent the rest, and
    the reports come back in listed order.
    """
    names = _listed(names, "suites")
    check_depth(depth)
    a_values = _listed(a_values, "--a-values")
    if len(a_values) > HARD_A_VALUES_CAP:
        raise DepthLimitError(f"--a-values of {len(a_values)} Cohn parameters exceeds cap "
                              f"{HARD_A_VALUES_CAP}")
    for a in a_values:
        check_cohn_parameter(a)
    if len(set(a_values)) < len(a_values):
        raise DomainError(f"--a-values must be distinct, got {', '.join(map(str, a_values))}")
    expected = f"expected one of {', '.join(SUITES)}"
    if not names:
        raise DomainError(f"no suite named; {expected}")
    for name in names:
        if not (isinstance(name, str) and name in SUITES):
            raise DomainError(f"unknown suite {shown(name)}; {expected}")
    if len(set(names)) < len(names):
        raise DomainError(f"--suites must be distinct, got {', '.join(names)}")
    if "index" in names and not a_values:
        raise DomainError("--a-values must name a Cohn parameter for the index suite")
    window = Window(depth, a_values)
    forked = [name for name in names if name in FORKED_SUITES]
    rest = [name for name in names if name not in forked]

    def halves():
        window.markov  # the parent's suites all read it, so the child inherits it
        return (lambda: _run(window, rest), lambda: _run(window, forked),
                lambda local, child: sorted(local + child, key=lambda r: names.index(r.suite)))

    if forked and rest:
        return _split(depth, _SPLIT_MIN_NODES, halves, lambda: _run(window, names))
    return _run(window, names)


def _listed(values, what: str) -> tuple:
    """values as a tuple; one string, or anything that is no collection, raises DomainError."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise DomainError(f"{what} must be a list, got {type(values).__name__}")
    return tuple(values)


def _run(window: Window, names: list) -> list:
    reports = []
    for name in names:
        started = time.perf_counter()
        report = SUITES[name](window)
        report.wall_time = time.perf_counter() - started
        reports.append(report)
    return reports


def format_report(report: VerifyReport) -> str:
    status = "PASS" if report.ok else "FAIL"
    checked = sum(report.checks.values()) + report.failures
    line = (f"{report.suite}: {status}  depth={report.depth}  "
            f"checks={checked}  failures={report.failures}  "
            f"time={report.wall_time:.2f}s")
    if report.first_counterexample is not None:
        ce = report.first_counterexample
        where = ce.get("path", "-")
        context = ", ".join(f"{key}={value}" for key, value in ce.items()
                            if key not in ("check", "path", "detail"))
        if context:  # the index suite's a
            where += f" ({context})"
        line += f"\n  first counterexample: {ce.get('check')} at {where}: {ce.get('detail', '')}"
    return line
