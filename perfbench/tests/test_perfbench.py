"""Tests of the benchmark itself: every workload at tiny sizes, every check
against a deliberately wrong input, the tracer, and the command line.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks as ck
import run as bench
import tracing
import workloads
from treebolic import analysis, pathsim, skeleton
from treebolic.space import DELTA, HTParams

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "escape-fine": {"paths": 60, "sojourns": 10, "dt": 1e-3},
    "limitlaw-coarse": {"paths": 60, "sojourns": 40, "dt": 5e-3, "limit_samples": 300, "grid_n": 1024},
    "first-exit": {"samples": 600, "dt": 1e-3},
    "trajectory": {"paths": 2, "horizon": 0.05, "dt": 1e-4, "stride": 5},
}


def _solve(workload, traced, seed=3):
    tracer = tracing.Tracer(traced)
    inputs = workloads.setup(workload, seed, tracer, TINY[workload])
    return workloads.solve(inputs, tracer), tracer


@pytest.fixture
def restore_layers():
    saved = [(m, a, getattr(m, a)) for m, a, _ in tracing.LAYERS]
    yield
    for m, a, fn in saved:
        setattr(m, a, fn)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_checks_at_tiny_size(workload, restore_layers):
    out, _ = _solve(workload, traced=False)
    assert out.failed == 0 and out.attempted >= 1
    assert out.checks.items and out.checks.ok, out.checks.failures()

    tracer = tracing.Tracer(True)
    tracer.instrument()
    inputs = workloads.setup(workload, 3, tracer, TINY[workload])
    traced = workloads.solve(inputs, tracer)
    # spans and counting generators leave every checked number unchanged
    assert json.dumps(traced.stats, sort_keys=True) == json.dumps(out.stats, sort_keys=True)
    assert tracer.spans and tracer.draws["rng.normals"] > 0
    layers = bench._layer_metrics(tracer, traced.work)
    assert all(v >= 0 for v in layers.values())


def test_layer_metrics_match_benchmark_json(restore_layers):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer(True)
    tracer.instrument()
    out = workloads.solve(workloads.setup("trajectory", 1, tracer, TINY["trajectory"]), tracer)
    names = set(bench._layer_metrics(tracer, out.work)) | {"trace.overhead_s"}
    assert set(bench.metric_units("per_layer")) == names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(bench.WORKLOADS)


def test_readme_states_the_end_to_end_bounds_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = {}
    for line in (ROOT / "perfbench" / "README.md").read_text().splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0] in bench.metric_units("end_to_end"):
            rows[cells[0]] = {"name": cells[0], "unit": cells[1], "better": cells[2], "bound": float(cells[3])}
    assert rows == {m["name"]: m for m in spec["end_to_end"]}


# -- each check rejects a deliberately wrong input ------------------------------


def test_shifted_sojourn_mean_is_rejected():
    m = workloads.DRIFT_FREE
    forms = workloads.closed_forms(m)
    tau, _ = skeleton.sample_tau_batch(m, 4000, np.random.default_rng(1), dt=1e-3)
    good, bad = ck.Checks(), ck.Checks()
    ck.check_sojourns(good, "tau", tau, forms["exp_tau"], forms["laplace_1"], 1e-3)
    ck.check_sojourns(bad, "tau", tau * 1.1, forms["exp_tau"], forms["laplace_1"], 1e-3)
    assert good.ok, good.failures()
    assert not bad.ok


@pytest.fixture(scope="module")
def small_run():
    run = pathsim.run_batch(
        workloads.DRIFTED, pathsim.SimConfig(dt=1e-3, horizon=2.0), 80, np.random.default_rng(2)
    )
    return run, pathsim.final_tree_points(run)


def test_tree_point_one_level_off_is_rejected(small_run):
    run, points = small_run
    good, bad = ck.Checks(), ck.Checks()
    ck.check_replay(good, run, points)
    off = list(points)
    off[5] = type(off[5])(off[5].upper.predecessor(), off[5].offset)
    ck.check_replay(bad, run, off)
    assert good.ok, good.failures()
    assert [n for n, ok, _ in bad.items if not ok] == ["replay.vertex_level", "replay.height"]


def test_event_directions_not_summing_to_level_are_rejected(small_run):
    run, points = small_run
    level = run.level.copy()
    level[0] += 1
    bad = ck.Checks()
    ck.check_replay(bad, dataclasses.replace(run, level=level), points)
    assert "replay.direction_sum" in [n for n, ok, _ in bad.items if not ok]


def test_distance_outside_sandwich_is_rejected(small_run):
    run, points = small_run
    geo = HTParams(2.0, 2)
    dists = [pathsim.distance_to_origin(workloads.DRIFTED, x, w) for x, w in zip(run.x, points)]
    good, above, below = ck.Checks(), ck.Checks(), ck.Checks()
    ck.check_distances(good, geo, run.x, points, dists)
    ck.check_distances(above, geo, run.x, points, [d + 2.0 * DELTA + 0.01 for d in dists])
    ck.check_distances(below, geo, run.x, points, [d - 2.0 * DELTA - 0.01 for d in dists])
    assert good.ok, good.failures()
    assert not above.ok and not below.ok


def test_swapped_exit_sides_are_rejected():
    em = analysis.sample_exit_measure(workloads.EXIT_PARAMS, 3000, np.random.default_rng(4), dt=1e-3)
    good, bad = ck.Checks(), ck.Checks()
    ck.check_exit_measure(good, em, 1e-3)
    ck.check_exit_measure(bad, dataclasses.replace(em, side=(-em.side).astype(np.int8)), 1e-3)
    assert good.ok, good.failures()
    assert not bad.ok


def test_wrong_up_fraction_and_branches_are_rejected(small_run):
    run, _ = small_run
    forms = workloads.closed_forms(workloads.DRIFTED)
    good, bad = ck.Checks(), ck.Checks()
    ck.check_events(good, "ev", run, forms, 1e-3)
    ck.check_up_fraction(bad, "ev", run.ev_dir < 0, forms["prob_up"], 1e-3)
    ck.check_branches(bad, "ev", np.zeros(500, dtype=np.int16), 2)
    assert good.ok, good.failures()
    assert [ok for _, ok, _ in bad.items] == [False, False]


def test_limit_law_checks_reject_a_wrong_scale_at_the_shipped_size():
    # one round's d / sqrt(t) and limit draws at the workload's own sizes,
    # where the finite-horizon allowance is widest (about 6 s)
    size, m = workloads.SIZES["limitlaw-coarse"], workloads.DRIFT_FREE
    horizon = size["sojourns"] * workloads.closed_forms(m)["exp_tau"]
    config = pathsim.SimConfig(dt=size["dt"], horizon=horizon)
    run = pathsim.run_batch(m, config, size["paths"], np.random.default_rng(11))
    dists = workloads._distances(HTParams(2.0, 2), run, pathsim.final_tree_points(run))
    limit, tops = analysis.draw_limit_samples(
        m, size["limit_samples"], np.random.default_rng(12), grid_n=size["grid_n"], return_max=True
    )

    def outcome(scale, top_scale=1.0):
        c = ck.Checks()
        ks = analysis.drift_free_clt(m, scale * dists, horizon, limit).statistic
        ck.check_limit_law(c, ks, run.n_paths, limit.size, size["sojourns"], top_scale * tops, size["grid_n"])
        return [ok for _, ok, _ in c.items]

    assert outcome(1.0) == [True, True]
    assert outcome(1.5) == outcome(0.8) == [False, True]
    assert outcome(1.0, top_scale=1.2) == [True, False]


def test_truncated_trajectory_is_rejected():
    cfg = pathsim.SimConfig(dt=1e-4, horizon=0.02, record_stride=5)
    records = pathsim.simulate_path(workloads.DRIFTED, cfg, np.random.default_rng(7), with_distance=True)
    geo = HTParams(2.0, 2)
    good, bad = ck.Checks(), ck.Checks()
    ck.check_trajectory(good, geo, records, cfg.horizon, cfg.dt, "p")
    ck.check_trajectory(bad, geo, records[:-1] + [records[-2]], cfg.horizon, cfg.dt, "p")
    assert good.ok, good.failures()
    assert {"p.clock_increasing", "p.clock_end"} <= {n for n, ok, _ in bad.items if not ok}


# -- tracer -----------------------------------------------------------------------


def test_counting_generator_keeps_the_stream():
    counts = dict.fromkeys(tracing.DRAW_KINDS, 0)
    counted = tracing.CountingGenerator(np.random.default_rng(9), counts)
    plain = np.random.default_rng(9)
    draws = [[g.standard_normal((3, 4)), g.random(5), g.integers(0, 3, size=7), g.normal(0, 1, 2)] for g in (counted, plain)]
    for a, b in zip(*draws):
        assert np.array_equal(a, b)
    assert counts == {"rng.normals": 14, "rng.uniforms": 5, "rng.integers": 7}


def test_self_time_subtracts_children():
    tracer = tracing.Tracer(True)
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 5.0, 6.0, 0], ["c", 2.0, 3.0, 1]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracer.calls("b") == 2


def test_disabled_tracer_records_nothing():
    tracer = tracing.Tracer(False)
    with tracer.span("x"):
        pass
    assert tracer.spans == [] and type(tracer.generator(1, 2)) is np.random.Generator


# -- command line -------------------------------------------------------------------


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trajectory", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_unknown_workload_is_refused():
    assert bench.main(["--workload", "nope", "--seed", "1"]) == 2

