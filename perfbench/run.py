"""aerobench benchmark: one workload per invocation, seeded, self-checking.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs come from `--seed`. After set-up, identical passes
of the workload repeat until `--seconds` have been measured; every pass's
outputs are checked. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every output check passed.

With `--trace 0` the metrics are the end-to-end ones, from untraced passes:
`items_per_s_adj` and `setup_s`, both adjusted to a reference machine speed
with `benchenv.reference_kernel_s`, and `peak_rss_mb`. The unadjusted
figures are printed on the lines before the JSON. With `--trace 1` the first
half of the time runs untraced passes and the second half traced ones, and
the metrics are the per-layer numbers from `tracing.layer_metrics` plus the
set-up split and the tracing overhead. Spans are written to
`.perfbench-work/` at the root of the checkout when the run ends.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import benchenv

# Set-up samples per run: this process's own set-up plus fresh-process probes.
SETUP_SAMPLES = 3
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_environment(load_at_start: tuple[float, float, float]) -> dict:
    from importlib import metadata

    import numpy
    import scipy

    import aerobench
    from aerobench.problems import catalog

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "harness_version": aerobench.__version__,
        "catalog_version": catalog.CATALOG_VERSION,
    }


def probe_setup(workload: str, seed: int, work_dir: str, first: dict) -> dict[str, float]:
    """Median set-up times (import, build, spawn) over this process's own
    set-up `first` and fresh-process probes, with `adjusted_s`, the total
    scaled to the reference machine speed."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    samples = [first]
    while len(samples) < SETUP_SAMPLES:
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed), work_dir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    for sample in samples:
        sample["adjusted_s"] = sample["total_s"] * benchenv.REFERENCE_S / sample["ref_s"]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def adjusted_wall(passes: list[tuple[float, float]]) -> float:
    """Mean pass wall time at reference machine speed.

    A ratio of sums, total wall over total kernel time, so that neither one
    slow pass nor one noisy kernel timing dominates.
    """
    return sum(w for w, _ in passes) / sum(r for _, r in passes) * benchenv.REFERENCE_S


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    try:
        benchenv.prepare()
    except benchenv.BenchEnvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    imported = time.perf_counter()
    import tracing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    work_dir = os.path.join(benchenv.ROOT, ".perfbench-work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    wl = workloads.make(args.workload, args.seed, work_dir)
    tracer = tracing.Tracer() if args.trace else None
    passes: list[tuple[float, float, bool]] = []  # (wall s, reference kernel s, traced)
    attempted = failed = 0
    try:
        split = wl.setup()
        own_setup = {"import_s": imported - START, **split, "total_s": time.perf_counter() - START}
        own_setup["ref_s"] = benchenv.settled_kernel_s()
        env_info = run_environment(load_at_start)
        wl.prepare_inputs()
        setup = probe_setup(args.workload, args.seed, work_dir, own_setup)
        # Set-up has imported every module and built every environment, so
        # the first pass is timed like the others.
        measured = 0.0
        ref_before = benchenv.reference_kernel_s()
        while True:
            n_untraced = sum(1 for p in passes if not p[2])
            traced = bool(args.trace) and measured >= args.seconds / 2 and n_untraced >= 2
            out_dir = os.path.join(work_dir, f"pass{len(passes)}")
            start = time.perf_counter()
            if traced:
                tracer.install()
                try:
                    tracer.run_pass(lambda: wl.run_pass(out_dir, tracer))
                finally:
                    tracer.uninstall()
            else:
                wl.run_pass(out_dir, None)
            wall = time.perf_counter() - start
            # The kernel is timed on both sides of every pass.
            ref_after = benchenv.reference_kernel_s()
            tried, bad = wl.check_pass(out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            passes.append((wall, (ref_before + ref_after) / 2, traced))
            ref_before = ref_after
            measured += wall
            attempted += tried
            failed += bad
            n_traced = sum(1 for p in passes if p[2])
            enough = n_traced >= 2 if args.trace else len(passes) >= MIN_PASSES
            if measured >= args.seconds and enough:
                break
    finally:
        wl.close()

    untraced_passes = [(w, r) for w, r, t in passes if not t]
    traced_passes = [(w, r) for w, r, t in passes if t]
    ref_ms = statistics.median(r for _, r, _ in passes) * 1e3
    print(f"env {json.dumps(env_info, sort_keys=True)}")
    print(f"workload {args.workload}: {len(passes)} timed passes, {attempted} attempted, {failed} failed")
    print(f"failed_ratio {failed / attempted!r}")
    print(
        f"pass walls (s): untraced {[round(w, 4) for w, _ in untraced_passes]}"
        f" traced {[round(w, 4) for w, _ in traced_passes]}"
    )
    print(f"pass kernels (ms): {[round(r * 1e3, 2) for _, r, _ in passes]}")
    print(f"reference kernel {ref_ms:.2f} ms (median; {benchenv.REFERENCE_S * 1e3:.0f} ms at reference speed)")
    for line in wl.report():
        print(line)
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(traced_passes))
        metrics["trace.overhead_ratio"] = adjusted_wall(traced_passes) / adjusted_wall(untraced_passes)
        for key in ("import_s", "build_s", "spawn_s"):
            metrics[f"setup.{key}"] = setup[key]
        metrics["machine.ref_kernel_ms"] = ref_ms
        units = tracing.PER_LAYER_UNITS
        trace_path = os.path.join(os.path.dirname(work_dir), f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "env": env_info})
        print(f"spans written to {os.path.relpath(trace_path, benchenv.ROOT)}")
    else:
        raw = statistics.median(wl.pass_items / w for w, _ in untraced_passes)
        print(f"{wl.alias} {raw!r} 1/s ({wl.item} per second, unadjusted median of {len(untraced_passes)} passes)")
        print(f"setup_s unadjusted {setup['total_s']!r} s")
        metrics = {
            "setup_s": setup["adjusted_s"],
            "items_per_s_adj": wl.pass_items / adjusted_wall(untraced_passes),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {"setup_s": "s", "items_per_s_adj": "1/s", "peak_rss_mb": "MB"}
    shutil.rmtree(work_dir, ignore_errors=True)
    for problem in wl.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not wl.problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
