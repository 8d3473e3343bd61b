"""Benchmark of the treebolic simulators.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run repeats whole rounds of the named
workload for about S seconds.  Each round is a fresh single-threaded Python
process that imports the package from src/, builds the inputs from the seed
and solves and checks them, so every round pays what a CLI user pays.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds):
setup_s, solve_s and peak_rss_mb.  Times are CPU seconds of the round
process (tracing.clock).  With --trace 1 the run alternates plain and traced
rounds and reports the per-layer metrics of the traced ones.  Metric names
and units are read from BENCHMARK.json.  Per-run results and spans are
written to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
ROUND_TIMEOUT_S = 120
WORKLOADS = ("escape-fine", "limitlaw-coarse", "first-exit", "trajectory")

# one thread for numpy's BLAS; its only use here is the small cone solve
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}

TIME_LAYERS = (
    "pathsim.run_batch",
    "pathsim.final_tree_points",
    "pathsim.first_exit_batch",
    "skeleton.sample_tau_batch",
    "pathsim.simulate_path",
    "space.ht_distance",
    "analysis.draw_limit_samples",
    "analysis.checks",
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- one round, in its own process ---------------------------------------------


def round_main(workload: str, seed: int, traced: bool) -> dict:
    """Set up, solve and check one round; return its record."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import tracing
    import workloads

    tracer = tracing.Tracer(traced)
    tracer.instrument()
    inputs = workloads.setup(workload, seed, tracer)
    # the clock counts from process start: interpreter, imports and inputs
    setup_s = tracing.clock()
    out = workloads.solve(inputs, tracer)
    record = {
        "setup_s": setup_s,
        "solve_s": tracing.clock() - setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": out.attempted,
        "failed": out.failed,
        "checks": out.checks.items,
        "stats": out.stats,
        "numpy": np.__version__,
    }
    if traced:
        record["layers"] = _layer_metrics(tracer, out.work)
        record["spans"] = tracer.spans
    return record


def _layer_metrics(tracer, work: dict) -> dict:
    s = tracer.self_times()
    m = {f"{name}.s": s.get(name, 0.0) for name in TIME_LAYERS}

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    steps = work.get("pathsim.run_batch.path_steps", 0)
    events = work.get("pathsim.events", 0)
    calls = tracer.calls("space.ht_distance")
    m["pathsim.run_batch.path_steps"] = steps
    m["pathsim.run_batch.ns_per_path_step"] = per(m["pathsim.run_batch.s"], steps, 1e9)
    m["pathsim.events"] = events
    m["pathsim.final_tree_points.us_per_event"] = per(m["pathsim.final_tree_points.s"], events, 1e6)
    m["pathsim.first_exit_batch.samples_per_s"] = per(
        work.get("pathsim.first_exit_batch.samples", 0), m["pathsim.first_exit_batch.s"]
    )
    m["skeleton.sample_tau_batch.samples_per_s"] = per(
        work.get("skeleton.sample_tau_batch.samples", 0), m["skeleton.sample_tau_batch.s"]
    )
    m["pathsim.simulate_path.us_per_step"] = per(
        m["pathsim.simulate_path.s"], work.get("pathsim.simulate_path.steps", 0), 1e6
    )
    m["space.ht_distance.calls"] = calls
    m["space.ht_distance.us_per_call"] = per(m["space.ht_distance.s"], calls, 1e6)
    m.update(tracer.draws)
    return m


# -- the run: whole rounds until the time is up ---------------------------------


def _spawn_round(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--round", "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", "1" if traced else "0"]
    proc = subprocess.run(
        cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV}, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: round process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _stats_key(record: dict) -> str:
    return json.dumps(record["stats"], sort_keys=True)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "treebolic" / "__init__.py").is_file():
        raise SystemExit(f"error: no treebolic package under {ROOT / 'src'}")
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_before": os.getloadavg(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }
    plain, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        if trace:
            # alternate which side goes first, so drift in load hits both
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for flag in order:
                (traced if flag else plain).append(_spawn_round(workload, seed, flag))
        else:
            plain.append(_spawn_round(workload, seed, False))
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    env["loadavg_after"] = os.getloadavg()
    env["numpy"] = plain[0]["numpy"]
    rounds = plain + traced

    failures = sorted({f"{n}: {t}" for r in rounds for n, ok, t in r["checks"] if not ok})
    repeat = len({_stats_key(r) for r in rounds}) == 1
    if not repeat:
        failures.append("checked statistics differ between rounds of one seed (traced or not)")
    if trace:
        units = metric_units("per_layer")
        counted = [k for k, unit in units.items() if unit == "count"]
        if any(r["layers"][k] != traced[0]["layers"][k] for r in traced for k in counted):
            failures.append("layer counts differ between traced rounds")
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        values.update({k: traced[0]["layers"][k] for k in counted if k in values})
        values["trace.overhead_s"] = (
            statistics.median(r["solve_s"] for r in traced) - statistics.median(r["solve_s"] for r in plain)
        )
    else:
        units = metric_units("end_to_end")
        values = {k: statistics.median(r[k] for r in plain) for k in units}
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    detail = {
        "env": env,
        "result": result,
        "failures": failures,
        "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in rounds],
    }
    if traced:
        detail["spans_file"] = _write_spans(workload, seed, traced)
    return result, detail


def _write_spans(workload: str, seed: int, traced: list) -> str:
    path = OUT_DIR / f"{workload}-seed{seed}-spans.json"
    spans = [
        {"round": i, "name": n, "start": a, "end": b, "parent": p}
        for i, r in enumerate(traced)
        for n, a, b, p in r["spans"]
    ]
    path.write_text(json.dumps(spans))
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.round:
        print(json.dumps(round_main(args.workload, args.seed, bool(args.trace))))
        return 0
    # a terminated run raises SystemExit, which makes subprocess.run kill and
    # reap the round process it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT_DIR.mkdir(exist_ok=True)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    env = detail["env"]
    print(
        f"# {args.workload} seed {args.seed}: {len(detail['rounds'])} rounds, nproc {env['nproc']},"
        f" python {env['python']}, numpy {env['numpy']}, load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}"
    )
    for line in detail["failures"]:
        print(f"# FAIL {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
