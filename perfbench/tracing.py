"""Traced run: spans around every call into a topograph layer, recorded from here.

The package is not edited.  While a traced pass runs, every reference a
topograph module (or workloads.py) holds to a layer function is swapped for a
wrapper that records a span, and the verify suites in SUITES are wrapped the
same way; everything is put back afterwards.  A function is not wrapped inside
the module that defines it.

A span has a name, start, end, parent span, op id and attributes (path steps,
word letters, node counts, check counts).  Spans stay in memory and are
written out when the run ends.  Self time is a span's duration minus its
child spans and the combine calls made inside it.

Tree walkers get a timing wrapper around their combine argument, which gives
the per-rule combine counts.  enumerate_tree is drained inside its span, so
its span covers the whole enumeration and not the consumer's work.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict

from topograph import cftree, cohn, export, markov, rational, tree, verify
from workloads import percentile

perf_counter = time.perf_counter

COMBINE_RULES = {
    rational.farey_mediant: "rational.farey_mediant",
    markov.springborn_mediant: "markov.springborn_mediant",
    markov.markov_child: "markov.markov_child",
    rational.cf_concat: "rational.cf_concat",
}
MATMUL_RULE = "rational.Mat2_matmul"

LAYERS = {
    tree.locate: "tree.locate",
    tree.descend: "tree.descend",
    tree.enumerate_tree: "tree.enumerate_tree",
    rational.convergent_matrix: "rational.convergent_matrix",
    rational.cf_expand_even: "rational.cf_expand_even",
    cftree.periodic_value: "cftree.periodic_value",
    cftree.markov_cf: "cftree.markov_cf",
    markov.markov_fraction: "markov.markov_fraction",
    markov.markov_triple_at: "markov.markov_triple_at",
    cohn.cohn_at: "cohn.cohn_at",
    export.build_export: "export.build_export",
    export.render: "export.render",
}
LAYER_BY_ID = {id(fn): name for fn, name in LAYERS.items()}
COMBINE_ORDER = ("rational.farey_mediant", "markov.springborn_mediant", "markov.markov_child",
                 MATMUL_RULE, "rational.cf_concat")

SUITE_NAMES = ("relations", "index", "words", "periodization", "companions",
               "monotonicity", "distinctness", "homomorphism")
KINDS = ("farey", "markov", "triple", "cohn", "cf", "irrational")
FORMATS = ("json", "csv", "dot")
TIMED_QUERIES = ("markov.markov_fraction", "cohn.cohn_at", "cftree.markov_cf",
                 "markov.markov_triple_at")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "inner_s")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.attrs = {}
        self.inner_s = 0.0  # combine time inside this span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans in start order; a span's parent is the index of the enclosing span."""

    def __init__(self, memory: bool = False):
        self.spans: list = []
        self.stack: list = []
        self.op_id = 0
        self.combine = defaultdict(lambda: [0, 0.0])
        self.memory = memory  # record tracemalloc peaks around builds and renders
        self.peaks = defaultdict(int)
        self.level_bits = defaultdict(dict)

    def op(self, name, fn, *args):
        self.op_id += 1
        return self.call(name, fn, args, {})

    def call(self, name, fn, args, kwargs, attrs=None):
        span = Span(name, self.stack[-1] if self.stack else None, self.op_id)
        index = len(self.spans)
        self.spans.append(span)
        self.stack.append(index)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self.stack.pop()
        if attrs is not None:
            attrs(span, args, result)
        return result

    def timed_combine(self, rule, combine):
        stats, spans, stack = self.combine[rule], self.spans, self.stack

        def timed(left, right):
            started = perf_counter()
            try:
                return combine(left, right)
            finally:
                elapsed = perf_counter() - started
                stats[0] += 1
                stats[1] += elapsed
                spans[stack[-1]].inner_s += elapsed

        return timed

    def self_times(self) -> list:
        own = [s.duration - s.inner_s for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


def _rule_name(combine, seed_left) -> str:
    if combine in COMBINE_RULES:
        return COMBINE_RULES[combine]
    return MATMUL_RULE if isinstance(seed_left, rational.Mat2) else "other"


def _bits(value) -> int:
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, rational.Mat2):
        return max(abs(e).bit_length() for e in (value.e11, value.e12, value.e21, value.e22))
    if isinstance(value, tuple):  # continued fraction word: its letter count
        return len(value)
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _wrap(tracer, layer, fn):
    """A wrapper for one layer function; its spans carry the layer's counts."""
    if layer in ("tree.enumerate_tree", "tree.descend"):
        drain = layer == "tree.enumerate_tree"

        def walker(seed_left, seed_right, combine, *args, **kwargs):
            rule = _rule_name(combine, seed_left)
            timed = tracer.timed_combine(rule, combine)

            def body():
                out = fn(seed_left, seed_right, timed, *args, **kwargs)
                return list(out) if drain else out

            def attrs(span, _args, out):
                if drain:
                    span.attrs["nodes"] = len(out)
                    if tracer.memory:
                        levels = tracer.level_bits[rule]
                        for node in out:
                            level = len(node.path)
                            levels[level] = max(levels.get(level, 0), _bits(node.value))
                else:
                    span.attrs["steps"] = len(args[0])

            result = tracer.call(layer, body, (), {}, attrs)
            return iter(result) if drain else result

        return walker

    if layer in ("export.build_export", "export.render"):
        def with_peak(*args, **kwargs):
            name = f"{layer}.{args[0] if layer == 'export.build_export' else args[1]}"
            if tracer.memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            result = tracer.call(name, fn, args, kwargs)
            if tracer.memory:
                tracer.peaks[layer] = max(tracer.peaks[layer],
                                          tracemalloc.get_traced_memory()[1] - base)
            return result

        return with_peak

    attrs = None
    if layer == "tree.locate":
        def attrs(span, _args, path):
            span.attrs["steps"] = len(path)
    elif layer == "rational.convergent_matrix":
        def attrs(span, args, _m):
            span.attrs["letters"] = len(args[0])

    def traced(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs, attrs)

    return traced


def _suite_wrapper(tracer, name, fn):
    def attrs(span, _args, report):
        span.attrs["checks"] = sum(report.checks.values())
        span.attrs["failures"] = report.failures

    def traced(*args, **kwargs):
        return tracer.call(f"verify.{name}", fn, args, kwargs, attrs)

    return traced


class Patched:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer, extra_modules=()):
        self.tracer = tracer
        self.extra = extra_modules
        self.undo = []

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "topograph" or n.startswith("topograph."))]
        for module in modules + list(self.extra):
            for attr, value in list(vars(module).items()):
                layer = LAYER_BY_ID.get(id(value))
                if layer is None or getattr(value, "__module__", None) == module.__name__:
                    continue
                self.undo.append((vars(module), attr, value))
                setattr(module, attr, _wrap(self.tracer, layer, value))
        for name, fn in list(verify.SUITES.items()):
            self.undo.append((verify.SUITES, name, fn))
            verify.SUITES[name] = _suite_wrapper(self.tracer, name, fn)
        return self

    def __exit__(self, *exc):
        for namespace, attr, value in reversed(self.undo):
            namespace[attr] = value
        self.undo.clear()
        return False


def layer_metrics(tracer: Tracer, memory: Tracer, export_sizes: dict, overhead_s: float) -> dict:
    """Every per-layer metric, in BENCHMARK.json order, as {name: (value, unit)}."""
    own = tracer.self_times()
    by_name = defaultdict(list)
    for index, span in enumerate(tracer.spans):
        by_name[span.name].append(index)

    def total(name):
        return sum(tracer.spans[i].duration for i in by_name[name])

    def attr(name, key):
        return sum(tracer.spans[i].attrs.get(key, 0) for i in by_name[name])

    def ms(name, q):
        return 1000 * percentile([tracer.spans[i].duration for i in by_name[name]], q)

    m = {}
    m["tree.enumerate_tree.s"] = (total("tree.enumerate_tree"), "s")
    m["tree.enumerate_tree.self_s"] = (sum(own[i] for i in by_name["tree.enumerate_tree"]), "s")
    m["tree.enumerate_tree.nodes"] = (attr("tree.enumerate_tree", "nodes"), "count")
    int_rules = [levels for rule, levels in memory.level_bits.items()
                 if rule not in ("rational.cf_concat", "other")]
    m["tree.max_bits"] = (max((max(lv.values()) for lv in int_rules if lv), default=0), "bits")
    for name in ("tree.locate", "tree.descend"):
        m[f"{name}.s"] = (total(name), "s")
        m[f"{name}.steps"] = (attr(name, "steps"), "count")
    for rule in COMBINE_ORDER:
        calls, seconds = tracer.combine.get(rule, (0, 0.0))
        m[f"{rule}.calls"] = (calls, "count")
        m[f"{rule}.s"] = (seconds, "s")
    m["rational.convergent_matrix.calls"] = (len(by_name["rational.convergent_matrix"]), "count")
    m["rational.convergent_matrix.s"] = (total("rational.convergent_matrix"), "s")
    m["rational.convergent_matrix.letters"] = (attr("rational.convergent_matrix", "letters"), "count")
    m["rational.cf_expand_even.calls"] = (len(by_name["rational.cf_expand_even"]), "count")
    m["rational.cf_expand_even.s"] = (total("rational.cf_expand_even"), "s")
    for name in ("cftree.periodic_value",) + TIMED_QUERIES:
        m[f"{name}.calls"] = (len(by_name[name]), "count")
        m[f"{name}.s"] = (total(name), "s")
        m[f"{name}.p50_ms"] = (ms(name, 0.50), "ms")
        m[f"{name}.p99_ms"] = (ms(name, 0.99), "ms")
    for suite in SUITE_NAMES:
        name = f"verify.{suite}"
        m[f"{name}.s"] = (total(name), "s")
        m[f"{name}.checks"] = (attr(name, "checks"), "count")
        m[f"{name}.failures"] = (attr(name, "failures"), "count")
    for kind in KINDS:
        m[f"export.build_export.{kind}.s"] = (total(f"export.build_export.{kind}"), "s")
    for fmt in FORMATS:
        m[f"export.render.{fmt}.s"] = (total(f"export.render.{fmt}"), "s")
        m[f"export.render.{fmt}.bytes"] = (
            sum(size for name, size in export_sizes.items() if name.endswith("." + fmt)), "bytes")
    m["export.build_export.peak_mb"] = (memory.peaks["export.build_export"] / 2**20, "MB")
    m["export.render.peak_mb"] = (memory.peaks["export.render"] / 2**20, "MB")
    m["cli.main.s"] = (total("cli.main"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def span_records(tracer: Tracer) -> list:
    own = tracer.self_times()
    return [{"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "self_s": own[i], **s.attrs}
            for i, s in enumerate(tracer.spans)]


def memory_pass(workload):
    """An export pass with tracemalloc on: peak bytes of build and render, bits per level."""
    tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        with Patched(tracer):
            result = workload.run_pass(tracer)
    finally:
        tracemalloc.stop()
    return tracer, result
