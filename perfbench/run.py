"""Run one topograph benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout; topograph is imported from its src/.  The
run repeats the workload's fixed input set until S seconds have passed, then
prints a report and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones (see README.md).  Full results, with
the environment, workload properties and (traced) spans, go to
.perfbench_out/ in the checkout.
"""

# Only the standard library's smallest modules are imported up here: a
# set-up child times `import topograph` and should pay for its imports.
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 5


def use_checkout_sources():
    """Put this checkout's src/ first on the path, or exit non-zero."""
    init = os.path.join(SRC, "topograph", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no topograph sources at {init}")
    sys.path.insert(0, SRC)


def setup_child(workload: str, seed: int):
    """Time `import topograph` plus input generation in this fresh process."""
    started = time.perf_counter()
    import workloads  # imports topograph

    inputs = workloads.make_inputs(workload, seed)
    elapsed = time.perf_counter() - started
    import json

    print(json.dumps({"setup_s": elapsed, "inputs": inputs}))


def run_setups(workload: str, seed: int):
    """SETUP_RUNS set-ups in fresh processes: median time, and their common inputs."""
    import json
    import statistics
    import subprocess

    times, inputs = [], None
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child", workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit("perfbench: set-up failed")
        out = json.loads(proc.stdout.splitlines()[-1])
        if inputs is not None and out["inputs"] != inputs:
            sys.exit("perfbench: one seed gave two different input sets")
        inputs = out["inputs"]
        times.append(out["setup_s"])
    return statistics.median(times), inputs


def environment(seed: int) -> dict:
    import hashlib
    import platform
    import subprocess

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "topograph")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
    }


def end_to_end(workload, seconds: float, setup_s: float):
    """Repeat the input set for `seconds`; each op counts at its median over the passes."""
    import resource
    import statistics

    import workloads

    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(workload.run_pass())
    per_op = [statistics.median(p.times[i] for p in passes) for i in range(len(passes[0].times))]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (1000 * workloads.percentile(per_op, 0.50), "ms"),
        "op_p99_ms": (1000 * workloads.percentile(per_op, 0.99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, passes, {"op_times": [p.times for p in passes]}


def traced(name: str, seed: int, scratch: str):
    """A traced pass of every workload, between two untraced passes of `name`.

    Every layer metric is present in every traced run.  The tracing overhead
    is `name`'s traced pass minus the mean of its two untraced passes.
    """
    import tracing
    import workloads

    expected = workloads.load_expected()
    runs = {n: cls(workloads.make_inputs(n, seed), expected, scratch)
            for n, cls in workloads.WORKLOADS.items()}
    untraced = [runs[name].run_pass()]
    tracer = tracing.Tracer()
    passes = {}
    with tracing.Patched(tracer, extra_modules=[workloads]):
        for n, workload in runs.items():
            passes[n] = workload.run_pass(tracer)
    untraced.append(runs[name].run_pass())
    # Memory is traced on the JSON exports only, the largest format, because
    # tracemalloc slows the export pass about sevenfold.
    json_exports = [e for e in runs["export-trees"].exports if e[2] == "json"]
    memory, memory_pass = tracing.memory_pass(
        workloads.ExportTrees({"exports": json_exports}, expected, scratch))
    overhead = passes[name].wall - sum(p.wall for p in untraced) / len(untraced)
    metrics = tracing.layer_metrics(tracer, memory, passes["export-trees"].sizes, overhead)
    details = {
        "traced_wall_s": {n: p.wall for n, p in passes.items()},
        "untraced_wall_s": [p.wall for p in untraced],
        "max_size_per_level": {rule: [levels[d] for d in sorted(levels)]
                               for rule, levels in memory.level_bits.items()},
        "spans": tracing.span_records(tracer),
    }
    return metrics, untraced + [memory_pass] + list(passes.values()), details, runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--setup-child"]:
        use_checkout_sources()
        setup_child(argv[1], int(argv[2]))
        return 0

    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("verify-window", "export-trees", "point-queries"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that corrupted outputs are counted as failures")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    use_checkout_sources()
    import topograph

    if not os.path.abspath(topograph.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported topograph from {topograph.__file__}, not {SRC}")
    if args.self_test:
        import selftest

        return selftest.main()

    import workloads

    scratch = os.path.join(OUT_DIR, "exports")
    os.makedirs(scratch, exist_ok=True)
    env = environment(args.seed)
    if args.trace:
        metrics, passes, details, runs = traced(args.workload, args.seed, scratch)
        workload = runs[args.workload]
    else:
        setup_s, inputs = run_setups(args.workload, args.seed)
        workload = workloads.WORKLOADS[args.workload](inputs, workloads.load_expected(), scratch)
        metrics, passes, details = end_to_end(workload, args.seconds, setup_s)
    os.rmdir(scratch)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    properties = {"export_bytes": max((p.sizes for p in passes), key=len)}
    if isinstance(workload, workloads.PointQueries):
        properties["paths"] = workload.properties()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "args": vars(args), "result": result,
                   "properties": properties, "details": details}, fh, indent=1)

    print(f"perfbench {args.workload}  seed={args.seed}  trace={args.trace}  "
          f"passes={len(passes)}  ops={attempted}")
    print("  env: " + json.dumps(env, sort_keys=True))
    paths = properties.get("paths")
    if paths:
        print(f"  inputs: {paths['coordinates']} coordinates, path steps median "
              f"{paths['steps_median']} max {paths['steps_max']}, run >= "
              f"{workloads.LONG_RUN}: {paths[f'with_run_ge_{workloads.LONG_RUN}']}")
    if args.trace:
        print(f"  untraced wall_s: {details['untraced_wall_s']}; traced wall_s: "
              + json.dumps(details["traced_wall_s"]))
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(f"  fail_ratio = {failed}/{attempted}")
    print(f"  full results: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
