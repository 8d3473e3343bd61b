"""The benchmark's four workloads: inputs made from a seed, then the timed
solve that computes and checks every output.

`setup` builds the inputs (parameters, closed forms, seeds, checkpoint
lists); `solve` runs the library on them, checks the outputs and returns the
checked statistics.  Library calls go through module attributes
(`pathsim.run_batch`, `space.ht_distance`, ...) so that a traced run can wrap
them from outside (see tracing.py).
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from treebolic import analysis, pathsim, skeleton, space
from treebolic import closed_forms as cf
from treebolic.closed_forms import ModelParams
from treebolic.tree import TreeVertex

import checks as ck

# The acceptance suite's parameter sets (treebolic.acceptance).
DRIFTED = ModelParams(2.0, 2, 1.0, 1.0)  # rho = 2
DRIFT_FREE = ModelParams(2.0, 2, 1.0, 0.5)  # rho = 1
EXIT_PARAMS = ModelParams(2.0, 2, 1.0, 0.75)  # rho = 3/2
ALT_TAU = ModelParams(2.0, 2, 0.5, 1.0)  # alpha = 0.5

#: Sizes of one round of each workload.  Tests pass smaller ones.
SIZES = {
    "escape-fine": {"paths": 1000, "sojourns": 10, "dt": 1e-4},
    "limitlaw-coarse": {"paths": 600, "sojourns": 300, "dt": 5e-3, "limit_samples": 2000, "grid_n": 8192},
    "first-exit": {"samples": 4000, "dt": 1e-4},
    "trajectory": {"paths": 8, "horizon": 0.3, "dt": 1e-4, "stride": 2},
}

WORKLOADS = tuple(SIZES)


def closed_forms(params: ModelParams) -> dict:
    return {
        "exp_tau": cf.exp_tau(params),
        "laplace_1": cf.laplace_tau(params, 1.0),
        "prob_up": cf.prob_up(params),
        "escape_rate": cf.escape_rate(params),
    }


@dataclass
class Outcome:
    """What one solve produced.  `stats` holds the checked statistics, which
    must repeat bit for bit for the same seed, traced or not; `work` holds
    the layer work counts."""

    stats: dict = field(default_factory=dict)
    checks: ck.Checks = field(default_factory=ck.Checks)
    attempted: int = 0
    failed: int = 0
    work: dict = field(default_factory=dict)

    def attempt(self, name: str, fn, *args) -> None:
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            fn(*args)
        except Exception:  # noqa: BLE001 - counted and reported, the round goes on
            self.failed += 1
            print(f"operation {name} failed:\n{traceback.format_exc()}", file=sys.stderr)

    def add_work(self, key: str, amount) -> None:
        self.work[key] = self.work.get(key, 0) + amount


def setup(workload: str, seed: int, tracer, size: dict | None = None) -> dict:
    """Inputs of one round: everything the solve needs, nothing it computes."""
    size = dict(SIZES[workload] if size is None else size)
    inp = {"workload": workload, "seed": seed, "size": size, "geo": space.HTParams(2.0, 2)}
    if workload == "escape-fine":
        inp["params"] = DRIFTED
        inp["cf"] = closed_forms(DRIFTED)
        inp["config"] = pathsim.SimConfig(dt=size["dt"], horizon=size["sojourns"] * inp["cf"]["exp_tau"])
        inp["rng"] = tracer.generator(seed, 1)
    elif workload == "limitlaw-coarse":
        inp["params"] = DRIFT_FREE
        inp["cf"] = closed_forms(DRIFT_FREE)
        horizon = size["sojourns"] * inp["cf"]["exp_tau"]
        inp["config"] = pathsim.SimConfig(dt=size["dt"], horizon=horizon)
        inp["checkpoints"] = [horizon / 4.0, horizon / 2.0, 3.0 * horizon / 4.0]
        inp["rng"] = tracer.generator(seed, 2)
        inp["limit_rng"] = tracer.generator(seed, 3)
    elif workload == "first-exit":
        inp["tau_cases"] = [
            (label, m, closed_forms(m), tracer.generator(seed, stream))
            for label, m, stream in (("tau_driftfree", DRIFT_FREE, 4), ("tau_alt", ALT_TAU, 5))
        ]
        inp["exit_rng"] = tracer.generator(seed, 6)
    elif workload == "trajectory":
        inp["params"] = DRIFTED
        inp["config"] = pathsim.SimConfig(dt=size["dt"], horizon=size["horizon"], record_stride=size["stride"])
        # one stream per path, as `treebolic simulate` does
        inp["rngs"] = [tracer.generator(seed, 100 + i) for i in range(size["paths"])]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inp


def solve(inp: dict, tracer) -> Outcome:
    out = Outcome()
    {
        "escape-fine": _escape_fine,
        "limitlaw-coarse": _limitlaw_coarse,
        "first-exit": _first_exit,
        "trajectory": _trajectory,
    }[inp["workload"]](inp, tracer, out)
    return out


def _distances(geo, run, points) -> np.ndarray:
    org = space.origin(geo)
    return np.array([space.ht_distance(geo, space.HTPoint(float(x), w), org) for x, w in zip(run.x, points)])


def _simulate_and_replay(inp: dict, out: Outcome, checkpoints=None):
    params, config, n = inp["params"], inp["config"], inp["size"]["paths"]
    run = pathsim.run_batch(params, config, n, inp["rng"], checkpoints=checkpoints)
    out.add_work("pathsim.run_batch.path_steps", n * round(config.horizon / config.dt))
    out.add_work("pathsim.events", int(run.ev_path.size))
    points = pathsim.final_tree_points(run)
    dists = _distances(inp["geo"], run, points)
    return run, points, dists


def _run_stats(run, dists) -> dict:
    return {
        "events": int(run.ev_path.size),
        "level_sum": int(run.level.sum()),
        "y_mean": float(run.y.mean()),
        "x_abs_mean": float(np.abs(run.x).mean()),
        "dist_mean": float(dists.mean()),
        "dist_max": float(dists.max()),
    }


def _escape_fine(inp, tracer, out):
    def case():
        run, points, dists = _simulate_and_replay(inp, out)
        with tracer.span("analysis.checks"):
            c, p, t = out.checks, inp["params"], run.horizon
            ck.check_replay(c, run, points)
            ck.check_distances(c, inp["geo"], run.x, points, dists)
            ck.check_events(c, "events", run, inp["cf"], run.dt)
            # criteria 4, 5 and 11 at this horizon, reported and not gated
            rate = analysis.estimate_escape_rate(dists, t)
            cone = analysis.cone_hitting_probability(p, 1)
            masses = analysis.cone_masses(points, TreeVertex.root(p.p).successors())
            out.stats.update(_run_stats(run, dists))
            out.stats.update(
                escape_rate=rate.mean,
                escape_rate_target=inp["cf"]["escape_rate"],
                vertical_ks=analysis.vertical_clt(p, run.y, t).statistic,
                cone_oracle=cone,
                cone_masses=[float(m) for m in masses],
            )

    out.attempt("escape-fine", case)


def _limitlaw_coarse(inp, tracer, out):
    size = inp["size"]

    def case():
        run, points, dists = _simulate_and_replay(inp, out, inp["checkpoints"])
        limit, tops = analysis.draw_limit_samples(
            inp["params"], size["limit_samples"], inp["limit_rng"], grid_n=size["grid_n"], return_max=True
        )
        with tracer.span("analysis.checks"):
            c, p, t = out.checks, inp["params"], run.horizon
            ck.check_replay(c, run, points)
            ck.check_distances(c, inp["geo"], run.x, points, dists)
            ck.check_events(c, "events", run, inp["cf"], run.dt)
            ks = analysis.drift_free_clt(p, dists, t, limit).statistic
            ck.check_limit_law(c, ks, run.n_paths, limit.size, size["sojourns"], tops, size["grid_n"])
            cp_x = np.column_stack([run.checkpoint_x, run.x])
            diag = analysis.critical_diagnostics(np.append(run.checkpoint_times, t), cp_x, run.zero_visits)
            c.expect(
                "critical.zero_visits",
                diag["paths_with_zero_visit"] > 0.5,
                f"base level revisited on {diag['paths_with_zero_visit']:.1%} of paths (> 50%)",
            )
            out.stats.update(_run_stats(run, dists))
            out.stats.update(
                limit_ks=ks,
                limit_max_mean=float(tops.mean()),
                vertical_ks=analysis.vertical_clt(p, run.y, t).statistic,
                median_abs_x=diag["median_abs_x"],
                zero_visit_share=diag["paths_with_zero_visit"],
            )

    out.attempt("limitlaw-coarse", case)


def _first_exit(inp, tracer, out):
    dt, n = inp["size"]["dt"], inp["size"]["samples"]

    def tau_case(label, params, forms, rng):
        tau, side = skeleton.sample_tau_batch(params, n, rng, dt=dt)
        out.add_work("skeleton.sample_tau_batch.samples", n)
        with tracer.span("analysis.checks"):
            ck.check_sojourns(out.checks, label, tau, forms["exp_tau"], forms["laplace_1"], dt)
            ck.check_up_fraction(out.checks, label, side == 1, forms["prob_up"], dt)
            out.stats[label] = [float(tau.mean()), float(np.exp(-tau).mean()), float(np.mean(side == 1))]

    def exit_case():
        em = analysis.sample_exit_measure(EXIT_PARAMS, n, inp["exit_rng"], dt=dt)
        out.add_work("pathsim.first_exit_batch.samples", n)
        with tracer.span("analysis.checks"):
            ck.check_exit_measure(out.checks, em, dt)
            out.stats["exit"] = [float(m) for m in em.line_masses()] + [
                analysis.skewness(em.x),
                float(np.median(np.abs(em.x))),
            ]

    for case in inp["tau_cases"]:
        out.attempt(case[0], tau_case, *case)
    out.attempt("exit", exit_case)


def _trajectory(inp, tracer, out):
    params, config, geo = inp["params"], inp["config"], inp["geo"]

    def case(i, rng):
        records = pathsim.simulate_path(params, config, rng, with_distance=True)
        out.add_work("pathsim.simulate_path.steps", round(config.horizon / config.dt))
        with tracer.span("analysis.checks"):
            ck.check_trajectory(out.checks, geo, records, config.horizon, config.dt, f"path{i}")
            last = records[-1]
            out.stats[f"path{i}"] = [len(records), last.t, last.x, last.y, last.n_events, math.fsum(r.dist for r in records)]

    for i, rng in enumerate(inp["rngs"]):
        out.attempt(f"path{i}", case, i, rng)
