"""Self-test: the gates count corrupted outputs as failures.

    python3 perfbench/run.py --self-test

Runs each gate once on a correct output and once on a corrupted one (a wrong
verify count, a changed export byte, a wrong digest, each point answer
replaced), and checks BENCHMARK.json against the metrics the code reports.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from topograph import cli

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _verify_cases(expected: dict, results: list):
    wl = workloads.VerifyWindow(workloads.make_inputs("verify-window", 0), expected, "")
    good = [{"suite": s, "checks": v["checks"], "failures": v["failures"]}
            for s, v in expected["verify"].items()]
    bad = json.loads(json.dumps(good))
    bad[0]["checks"][next(iter(bad[0]["checks"]))] += 1
    results.append(("verify: correct report passes", wl.check(0, json.dumps(good))))
    results.append(("verify: a changed check count fails", not wl.check(0, json.dumps(bad))))
    results.append(("verify: exit code 1 fails", not wl.check(1, json.dumps(good))))
    results.append(("verify: unparsable output fails", not wl.check(0, "not json")))


def _export_cases(expected: dict, scratch: str, results: list):
    inputs = {"exports": [["farey", workloads.EXPORT_DEPTHS["farey"], "csv"]]}
    wl = workloads.ExportTrees(inputs, expected, scratch)
    results.append(("export: correct file passes", wl.run_pass().failed == 0))

    real_render = cli.render
    cli.render = lambda export, fmt: real_render(export, fmt) + " "
    try:
        results.append(("export: one extra byte fails", wl.run_pass().failed == 1))
    finally:
        cli.render = real_render

    name = workloads.export_name(*inputs["exports"][0])
    wl.expected = {name: "0" * 64}
    results.append(("export: a wrong digest fails", wl.run_pass().failed == 1))


def _point_cases(expected: dict, results: list):
    coords = [[1, 7], [6, 7], [3, 11]]
    wl = workloads.PointQueries({"coordinates": coords}, expected, "")
    results.append(("points: correct answers pass", wl.run_pass().failed == 0))

    t = Fraction(3, 11)
    answers = [query(t) for _, query in workloads.QUERIES]
    results.append(("points: gate accepts correct answers", all(workloads.check_point(answers))))
    mf, cohn, word, periodic, triple = answers
    wrong = [
        mf + Fraction(1, mf.denominator),
        workloads.cohn_at(Fraction(2, 11), 0),
        word + (1, 1),
        workloads.periodic_value((2, 2)),
        workloads.markov_triple_at("L"),
    ]
    for i, (name, _) in enumerate(workloads.QUERIES):
        corrupted = list(answers)
        corrupted[i] = wrong[i]
        verdict = workloads.check_point(corrupted)
        results.append((f"points: a wrong {name} answer fails", not verdict[i]))
        corrupted[i] = None
        results.append((f"points: a raised {name} fails", not workloads.check_point(corrupted)[i]))

    real = workloads.markov_fraction
    workloads.markov_fraction = lambda t: real(t) + 1
    try:
        results.append(("points: a corrupted library answer fails in a pass",
                        wl.run_pass().failed > 0))
    finally:
        workloads.markov_fraction = real


def _benchmark_json_cases(results: list):
    import tracing

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    per_layer = tracing.layer_metrics(tracing.Tracer(), tracing.Tracer(), {}, 0.0)
    declared = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    results.append(("BENCHMARK.json per_layer matches the traced metrics",
                    declared == [(k, u) for k, (_, u) in per_layer.items()]))
    end_to_end = ["setup_s", "wall_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb"]
    results.append(("BENCHMARK.json end_to_end matches the untraced metrics",
                    [m["name"] for m in bench["end_to_end"]] == end_to_end))
    results.append(("BENCHMARK.json workloads match",
                    [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)))


def main() -> int:
    expected = workloads.load_expected()
    scratch = os.path.join(ROOT, ".perfbench_out", "selftest")
    os.makedirs(scratch, exist_ok=True)
    results: list = []
    _verify_cases(expected, results)
    _export_cases(expected, scratch, results)
    _point_cases(expected, results)
    _benchmark_json_cases(results)
    os.rmdir(scratch)
    for label, ok in results:
        print(f"  {'ok  ' if ok else 'FAIL'} {label}")
    failed = [label for label, ok in results if not ok]
    print(f"self-test: {len(results) - len(failed)}/{len(results)} passed")
    return 1 if failed else 0
