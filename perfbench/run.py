"""fscontract benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload cli_cold|market_sweep|long_horizon \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory (nothing needs installing).  With ``--trace 0`` the run
measures the end-to-end metrics with tracing off; with ``--trace 1`` it
spends half the time untraced and half traced and reports the per-layer
metrics.  Outputs are checked after the timed region on every run.
End-to-end times are in reference seconds (see ``speed.py``); the raw
times are in the report.

Standard output ends with a human-readable report (the environment, the
cold-start probes, every metric with its unit and sample count, and any
failed check) followed by one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cli_cold", "market_sweep", "long_horizon")
LAYERS = ("cli", "scenario", "failure", "costs", "learning", "pricing", "report")

#: Set-up runs per measurement, each in a fresh interpreter; setup_s is
#: their median.
SETUP_REPEATS = 9
#: Cold-start probe repeats: interpreter start, and import/load.
START_REPEATS = 5
IMPORT_REPEATS = 3

#: Per-point call counts of single functions: metric -> function.
CALLS_PER_POINT = {
    "scenario.validate_calls_per_point": "scenario.validate_scenario",
    "scenario.external_draws_per_point": "scenario.simulate_external_rates",
    "failure.pm_plans_per_point": "failure.optimal_pm_count",
    "failure.expected_failures_calls_per_point": "failure.expected_failures",
    "costs.os_moments_calls_per_point": "costs.os_cost_moments",
    "learning.reduced_terms_calls_per_point": "learning.reduced_terms",
}
LF_SEARCH = "pricing.optimize_lf"
FS_COST = "learning.total_fs_cost"
EMIT = "report.emit_report"

IMPORT_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import fscontract
t2 = time.perf_counter()
fscontract.load_scenario(sys.argv[1])
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_child(argv: list[str]) -> str:
    """Run a child interpreter to completion and return its stdout."""
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=workloads.child_env(ROOT),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:2]} failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def cold_start_probes(config: Path) -> dict:
    """Interpreter start, numpy and package import, and a first config load,
    each the median over fresh interpreters, in ms."""
    starts = []
    for _ in range(START_REPEATS):
        t0 = time.perf_counter()
        run_child(["-c", "pass"])
        starts.append(time.perf_counter() - t0)
    splits = [json.loads(run_child(["-c", IMPORT_PROBE, str(config)]).splitlines()[-1])
              for _ in range(IMPORT_REPEATS)]
    return {
        "cli.process_start_ms": 1e3 * statistics.median(starts),
        "cli.import_numpy_ms": 1e3 * statistics.median(s[0] for s in splits),
        "cli.import_fscontract_ms": 1e3 * statistics.median(s[1] for s in splits),
        "scenario.load_ms": 1e3 * statistics.median(s[2] for s in splits),
    }


def environment(fc) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "fscontract": getattr(fc, "__version__", "unknown"), "cpu_model": cpu,
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}


def setup_samples(wl, seed: int) -> list[tuple[float, float]]:
    """Set-up times of fresh interpreters, each as (seconds, reference
    seconds): the workload's speed reference runs twice before and twice
    after each."""
    argv = [str(HERE / "run.py"), "--workload", wl.name, "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        refs = [wl.reference(), wl.reference()]
        seconds = float(run_child(argv).splitlines()[-1])
        refs += [wl.reference(), wl.reference()]
        samples.append((seconds, seconds * wl.reference_s / statistics.median(refs)))
    return samples


def scaled_seconds(wl, records) -> list[float]:
    return speed.scaled([r.seconds for r in records], [r.ref_seconds for r in records],
                        wl.reference_s)


def end_to_end(wl, records, setup: list[float], rss_mb: float) -> dict:
    latencies = scaled_seconds(wl, records)
    points = sum(r.op.points for r in records if not r.failed)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "op_ms_p50": (1e3 * percentile(latencies, 50), "ms", len(latencies)),
        "op_ms_p90": (1e3 * percentile(latencies, 90), "ms", len(latencies)),
        "points_per_s": (points / sum(latencies), "1/s", points),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def per_layer(wl, summary, available: set, traced, untraced, probes: dict) -> dict:
    """Per-point layer metrics from the traced half of the run.

    A metric whose function no longer exists in the package is None; a
    function that exists but was never called gives 0.
    """
    points = sum(r.op.points for r in traced if not r.failed)
    layers_present = {name.split(".")[0] for name in available}

    def per_point(x):
        return x / points if points else None

    def per_call(name, total):
        if name not in available:
            return None
        calls = summary.calls[name]
        return total / calls if calls else 0.0

    out = {}
    for layer in LAYERS:
        present = layer in layers_present
        out[f"{layer}.calls_per_point"] = (
            per_point(summary.layer_calls(layer)) if present else None, "calls/point")
        out[f"{layer}.self_ms_per_point"] = (
            per_point(1e3 * summary.layer_self_s(layer)) if present else None, "ms/point")
    for metric, fn in CALLS_PER_POINT.items():
        out[metric] = (per_point(summary.calls[fn]) if fn in available else None,
                       "calls/point")
    evals = summary.nested[(FS_COST, LF_SEARCH)] if FS_COST in available else None
    out["learning.fs_cost_evals_per_lf_search"] = (
        None if evals is None else per_call(LF_SEARCH, evals), "evals/search")
    iterations = summary.value_sum.get(LF_SEARCH)
    out["pricing.lf_search_iterations"] = (
        None if iterations is None else per_call(LF_SEARCH, iterations), "iters/search")
    out["pricing.lf_search_ms"] = (per_call(LF_SEARCH, 1e3 * summary.total_s[LF_SEARCH]), "ms")
    out["report.emit_ms"] = (per_call(EMIT, 1e3 * summary.total_s[EMIT]), "ms")
    out["report.emit_bytes"] = (per_call(EMIT, summary.value_sum[EMIT]), "bytes")
    for metric, value in probes.items():
        out[metric] = (value, "ms")

    def seconds_per_point(records):
        n = sum(r.op.points for r in records if not r.failed)
        return sum(scaled_seconds(wl, records)) / n if n else None

    t_traced, t_plain = seconds_per_point(traced), seconds_per_point(untraced)
    out["trace.overhead_share"] = (
        t_traced / t_plain - 1.0 if t_traced and t_plain else None, "share")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fscontract" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / args.workload
    if args.setup_probe:
        t0 = time.perf_counter()
        workloads.make(args.workload, args.seed, ROOT, work / "setup_probe").setup()
        print(time.perf_counter() - t0)
        return 0

    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.make(args.workload, args.seed, ROOT, work / "run")
    wl.setup()
    if Path(wl.fc.__file__).resolve().parent != SRC / "fscontract":
        print(f"perfbench: imported fscontract from {wl.fc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    config = work / "baseline.cfg"
    config.write_text("# shipped baseline\n", encoding="utf-8")
    probes = cold_start_probes(config)

    if args.trace == 0:
        records = workloads.run_cycles(wl, args.seconds)
        if args.workload == "cli_cold":
            rss_kb = max(r.rss_kb for r in records)  # the largest command process
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup = setup_samples(wl, args.seed)
        wrong = wl.check(records)
        metrics = end_to_end(wl, records, [s[1] for s in setup], rss_kb / 1024.0)
        raw = [r.seconds for r in records]
        refs = [r.ref_seconds for r in records]
        raw_times = {
            "setup_s": statistics.median(s[0] for s in setup),
            "op_ms_p50": 1e3 * percentile(raw, 50),
            "op_ms_p90": 1e3 * percentile(raw, 90),
            "reference_ms_p50": 1e3 * statistics.median(refs),
            "reference_ms_min": 1e3 * min(refs),
            "reference_ms_max": 1e3 * max(refs),
        }
    else:
        raw_times = {}
        untraced = workloads.run_cycles(wl, args.seconds / 2)
        if args.workload == "cli_cold":
            wl.trace_dir = work / "spans"
            wl.trace_dir.mkdir(parents=True)
            traced = workloads.run_cycles(wl, args.seconds / 2)
        else:
            tr = tracer.Tracer(tracer.PROBES)
            tr.install(tracer.package_modules())
            try:
                traced = workloads.run_cycles(wl, args.seconds / 2)
            finally:
                tr.uninstall()
        records = untraced + traced
        wrong = wl.check(records)
        if args.workload == "cli_cold":
            # Only commands that priced something: the malformed ones rotate
            # between cycles and would make per-cycle counts vary.
            logs = [tracer.SpanLog.read(wl.trace_dir / f"{i}.json")
                    for i, r in enumerate(traced) if r.op.points and not r.failed]
        else:
            logs = [tr.log]
        summary = tracer.Summary(nested=((FS_COST, LF_SEARCH),))
        for log in logs:
            summary.add(log)
        available = set(tracer.public_functions(tracer.package_modules()))
        metrics = per_layer(wl, summary, available, traced, untraced, probes)

    failed = [r for r in records if r.failed]
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r.op.label, []).append(r.seconds)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(wl.fc) | {"cold_start_ms": probes},
        "ops": len(records), "cycle_ops": wl.cycle_len,
        "op_ms_p50_by_kind": {k: round(1e3 * statistics.median(v), 3) for k, v in kinds.items()},
        "failed_share": len(failed) / len(records),
        "raw_times": raw_times,
        "metrics": {k: {"value": v[0], "unit": v[1]} | ({"samples": v[2]} if len(v) > 2 else {})
                    for k, v in metrics.items()},
        "failures": sorted({r.reason for r in failed})[:20],
        "wrong_outputs": wrong[:20],
    }
    print(json.dumps(report, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
