"""The three benchmark workloads: seeded inputs, one timed pass, correctness gates.

Each workload has a fixed input set that one pass runs once.  A pass returns
the time of every op (only the call into topograph is timed) and how many ops
failed: raised, returned a non-zero exit code, or failed the correctness gate.
Gates run outside the timed region.

Query code below calls the library through this module's globals, so that a
traced run (tracing.py) can put spans around those calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import groupby

from topograph import cli
from topograph import cftree as _cftree
from topograph import cohn as _cohn
from topograph import rational as _rational
from topograph.cftree import markov_cf, periodic_value
from topograph.cohn import cohn_at
from topograph.markov import markov_fraction, markov_triple_at
from topograph.tree import locate

# verify-window: every suite with the default a-values.  Depth 10 takes about
# 4 s; periodization is about 70% of it.
VERIFY_ARGV = ("verify", "--depth", "10", "--format", "json")

# export-trees: 6 kinds x 3 formats.  Irrational stays shallow so that
# periodic_value does little work here.
EXPORT_DEPTHS = {"farey": 13, "markov": 12, "triple": 12, "cohn": 12, "cf": 11, "irrational": 8}
EXPORT_FORMATS = ("json", "csv", "dot")

# point-queries: coordinates t = p/q, q uniform in [2, QMAX], p uniform among
# values coprime to q.  POINT_PAIRS coordinates t < 1/2 plus their mirrors 1 - t.
QMAX = 2000
POINT_PAIRS = 200
LONG_RUN = 64

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def export_name(kind: str, depth: int, fmt: str) -> str:
    return f"{kind}-{depth}.{fmt}"


def export_argv(kind: str, depth: int, fmt: str, out: str) -> list:
    return ["tree", "--kind", kind, "--depth", str(depth), "--max-depth", str(depth),
            "--format", fmt, "--out", out]


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def verify_outcome(text: str) -> dict:
    """Per-suite check counts and failures from `verify --format json` output."""
    return {r["suite"]: {"checks": r["checks"], "failures": r["failures"]}
            for r in json.loads(text)}


def percentile(values: list, q: float) -> float:
    """Percentile by linear interpolation between the closest ranks."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def query_cost(p, q):
    """Estimated query cost of each coordinate p/q (0 < p < q), from its Farey path.

    markov_cf copies a word of 2 * (denominator) letters at every node of the
    path, so it costs about S, the sum of the denominators along the path;
    periodic_value multiplies out a word of 2q letters whose convergents grow
    with it, about q^2.  The q^2 weight is fitted to timings of both queries
    (CPython 3.11, 2-core Xeon VM).
    """
    import numpy as np

    cost = np.full(p.shape, -1, dtype=np.int64)
    num, den = q.copy(), p.copy()  # partial quotients of q/p are those of p/q after the 0
    q_before, q_last = np.zeros_like(p), np.ones_like(p)
    while den.any():
        live = den > 0
        a = np.where(live, num // np.maximum(den, 1), 0)
        # Run of a nodes with denominators q_before + i * q_last, i = 1..a.
        cost += a * q_before + q_last * a * (a + 1) // 2
        q_before, q_last = np.where(live, q_last, q_before), np.where(live, a * q_last + q_before, q_last)
        num, den = np.where(live, den, num), np.where(live, num % np.maximum(den, 1), 0)
    return cost + q * q // 256


def point_coordinates(seed: int) -> list:
    """400 coordinates, stratified by estimated cost so every seed has the same profile.

    The population is every p/q with 2 <= q <= QMAX and p <= q/2 coprime to q,
    weighted so q is uniform and p uniform among its coprimes.  It is sorted by
    estimated query cost in 5% buckets, in a seeded random order within a
    bucket, and the coordinates at the POINT_PAIRS evenly spaced quantiles of
    that weighted order are kept, each with its mirror 1 - t.  A plain random
    sample lets a few long paths swing the total from seed to seed; this way
    the seed picks which coordinates carry each cost level, not how many
    costly ones there are.
    """
    import numpy as np

    qs = np.arange(2, QMAX + 1)
    half = qs // 2
    q = np.repeat(qs, half)
    p = np.arange(q.size) - np.repeat(np.cumsum(half) - half, half) + 1
    coprime = np.gcd(p, q) == 1
    p, q = p[coprime], q[coprime]
    weight = 1.0 / np.bincount(q)[q]
    bucket = np.floor(np.log(query_cost(p, q)) / np.log(1.05))
    rng = np.random.default_rng(seed)
    order = np.lexsort((rng.random(p.size), bucket))
    cdf = np.cumsum(weight[order])
    picks = order[np.searchsorted(cdf / cdf[-1], (np.arange(POINT_PAIRS) + 0.5) / POINT_PAIRS)]
    coords = []
    for num, den in zip(p[picks].tolist(), q[picks].tolist()):
        coords += [[num, den], [den - num, den]]
    return coords


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's input set; only point-queries depends on the seed."""
    if workload == "verify-window":
        return {"argv": list(VERIFY_ARGV)}
    if workload == "export-trees":
        return {"exports": [[kind, depth, fmt] for kind, depth in EXPORT_DEPTHS.items()
                            for fmt in EXPORT_FORMATS]}
    if workload == "point-queries":
        return {"coordinates": point_coordinates(seed)}
    raise ValueError(f"unknown workload {workload!r}")


class Pass:
    """One run of a workload's input set."""

    def __init__(self, times: list, failed: int, sizes: dict | None = None):
        self.times = times
        self.failed = failed
        self.sizes = sizes or {}

    @property
    def wall(self) -> float:
        return sum(self.times)


def _call(tracer, name, fn, *args):
    """Run one op; a traced run gives it a new op id and a root span."""
    if tracer is None:
        return fn(*args)
    return tracer.op(name, fn, *args)


def _report_error(what: str):
    print(f"op failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class VerifyWindow:
    name = "verify-window"

    def __init__(self, inputs: dict, expected: dict, scratch: str):
        self.argv = inputs["argv"]
        self.expected = expected["verify"]

    def run_pass(self, tracer=None) -> Pass:
        out = io.StringIO()
        started = time.perf_counter()
        try:
            with redirect_stdout(out):
                code = _call(tracer, "cli.main", cli.main, self.argv)
        except Exception:
            _report_error(" ".join(self.argv))
            code = None
        elapsed = time.perf_counter() - started
        return Pass([elapsed], 0 if self.check(code, out.getvalue()) else 1)

    def check(self, code, text: str) -> bool:
        try:
            return code == 0 and verify_outcome(text) == self.expected
        except (ValueError, KeyError, TypeError):
            return False


class ExportTrees:
    name = "export-trees"

    def __init__(self, inputs: dict, expected: dict, scratch: str):
        self.exports = [tuple(e) for e in inputs["exports"]]
        self.expected = expected["exports"]
        self.scratch = scratch

    def run_pass(self, tracer=None) -> Pass:
        times, failed, sizes = [], 0, {}
        for kind, depth, fmt in self.exports:
            name = export_name(kind, depth, fmt)
            out = os.path.join(self.scratch, name)
            argv = export_argv(kind, depth, fmt, out)
            started = time.perf_counter()
            try:
                code = _call(tracer, "cli.main", cli.main, argv)
            except Exception:
                _report_error(" ".join(argv))
                code = None
            times.append(time.perf_counter() - started)
            if os.path.exists(out):
                sizes[name] = os.path.getsize(out)
                digest = sha256_file(out)
                os.remove(out)
            else:
                digest = None
            failed += not self.check(code, name, digest)
        return Pass(times, failed, sizes)

    def check(self, code, name: str, digest) -> bool:
        return code == 0 and digest == self.expected.get(name)


# Each query looks its library function up at call time, so a traced run can wrap it.
def _query_markov_fraction(t):
    return markov_fraction(t)


def _query_cohn_at(t):
    return cohn_at(t, 0)


def _query_markov_cf(t):
    return markov_cf(t)


def _query_periodic_value(t):
    return periodic_value(markov_cf(t))


def _query_markov_triple_at(t):
    return markov_triple_at(locate(t))


QUERIES = (
    ("markov_fraction", _query_markov_fraction),
    ("cohn_at", _query_cohn_at),
    ("markov_cf", _query_markov_cf),
    ("periodic_value", _query_periodic_value),
    ("markov_triple_at", _query_markov_triple_at),
)


def check_point(answers: list) -> list:
    """One pass/fail per query, each answer checked against an independent route.

    The routes are reached through their defining modules, which a traced run
    leaves unwrapped, so checking adds no spans.
    """
    mf, cohn, word, periodic, triple = answers

    def holds(check) -> bool:
        try:
            return bool(check())
        except Exception:
            return False

    return [
        holds(lambda: _cohn.cohn_index(cohn) == mf),
        holds(lambda: _cohn.cohn_index(cohn) == mf and _cohn.trace_map(cohn) == mf.denominator),
        holds(lambda: word == _rational.cf_expand_even(2 + mf)),
        holds(lambda: periodic == _cftree.markov_irrationality(mf)),
        holds(lambda: triple.z == mf.denominator),
    ]


class PointQueries:
    name = "point-queries"

    def __init__(self, inputs: dict, expected: dict, scratch: str):
        self.coordinates = [Fraction(p, q) for p, q in inputs["coordinates"]]

    def run_pass(self, tracer=None) -> Pass:
        times, failed = [], 0
        perf_counter = time.perf_counter
        for t in self.coordinates:
            answers = []
            for name, query in QUERIES:
                started = perf_counter()
                try:
                    answers.append(_call(tracer, "query." + name, query, t))
                except Exception:
                    _report_error(f"{name}({t})")
                    answers.append(None)
                times.append(perf_counter() - started)
            failed += check_point(answers).count(False)
        return Pass(times, failed)

    def properties(self) -> dict:
        """Path steps and L/R runs per coordinate, from the package's own locate."""
        rows = []
        for t in self.coordinates:
            path = locate(t)
            runs = [len(list(g)) for _, g in groupby(path)]
            rows.append({"t": f"{t.numerator}/{t.denominator}", "steps": len(path),
                         "runs": len(runs), "longest_run": max(runs, default=0)})
        steps = sorted(r["steps"] for r in rows)
        long_runs = sum(r["longest_run"] >= LONG_RUN for r in rows)
        return {
            "coordinates": len(rows),
            "steps_median": steps[len(steps) // 2],
            "steps_max": steps[-1],
            "steps_total": sum(steps),
            f"with_run_ge_{LONG_RUN}": f"{long_runs}/{len(rows)}",
            "per_coordinate": rows,
        }


WORKLOADS = {w.name: w for w in (VerifyWindow, ExportTrees, PointQueries)}
