"""Command-line front end.

Subcommands: formulas | simulate | skeleton | escape | clt | exit-measure |
boundary | bs-word | verify.  Reports are JSON on stdout (or --out); path
dumps are CSV or JSONL.  Output is a pure function of the flags: the master
seed is part of every report, and rerunning a command reproduces its bytes.

Exit codes: 0 success (also when the reader of stdout closes it early),
1 usage error, 2 numerical failure, 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, analysis
from . import closed_forms as cf
from .acceptance import MASTER_SEED, AcceptanceSuite
from .closed_forms import ClosedForms, ModelParams
from .isometry import bs_word, modular
from .pathsim import (
    MAX_DT,
    NumericalError,
    SimConfig,
    final_points_and_distances,
    final_tree_points,
    first_exit_batch,
    run_batch,
    simulate_path,
)
from .skeleton import RngStream, run_skeleton
from .tree import TreeVertex, tree_distance


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit with code 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=float, required=True, help="strip height ratio, > 1")
    p.add_argument("--p", type=int, required=True, help="branching number, >= 1")
    p.add_argument("--alpha", type=float, required=True, help="vertical drift exponent")
    p.add_argument("--beta", type=float, required=True, help="line weight, > 0")


def _add_run_flags(p: argparse.ArgumentParser, paths_default: int) -> None:
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--horizon", type=float, default=None, help="default: 200 mean sojourns")
    p.add_argument("--paths", type=int, default=paths_default)
    p.add_argument("--seed", type=int, default=0)


#: Count flags and their least values, where a subcommand has them; the
#: exit-measure report takes a sample skewness, which needs two samples.
_COUNT_FLAGS = {"paths": 1, "record_stride": 1, "steps": 1, "samples": 2, "limit_samples": 1}

#: Largest |start level| * ln q: half the float exponent range, so that the
#: kernel's abscissa scale q**level, and its products with the root of the
#: accrued variance, stay well inside the float range.
_MAX_LEVEL_LOG = math.log(sys.float_info.max) / 2.0


def _check_flags(args) -> None:
    """Range checks on the parsed flags; a violation is a usage error."""
    dt = getattr(args, "dt", None)
    if dt is not None and not 0.0 < dt <= MAX_DT:
        raise _UsageError(f"--dt must lie in (0, {MAX_DT:g}], got {dt:g}")
    for name in ("horizon", "start_x"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise _UsageError(f"--{name.replace('_', '-')} must be finite, got {value:g}")
    horizon = getattr(args, "horizon", None)
    if horizon is not None and horizon < dt:
        raise _UsageError(f"--horizon must be at least --dt ({dt:g}), got {horizon:g}")
    for name, least in _COUNT_FLAGS.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise _UsageError(f"--{name.replace('_', '-')} must be >= {least}, got {value}")
    level = getattr(args, "start_level", None)
    if level is not None and args.q > 1.0 and abs(level) * math.log(args.q) > _MAX_LEVEL_LOG:
        raise _UsageError(
            f"--start-level must satisfy |start-level| * ln q <= {_MAX_LEVEL_LOG:.0f}, got {level}"
        )


def _model(args) -> ModelParams:
    try:
        return ModelParams(args.q, args.p, args.alpha, args.beta)
    except ValueError as exc:
        raise _UsageError(f"invalid parameters: {exc}") from exc


@contextlib.contextmanager
def _output(args):
    """The --out file, or stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, payload: dict) -> None:
    payload["version"] = __version__
    with _output(args) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _horizon(args, params: ModelParams) -> float:
    return args.horizon if args.horizon is not None else 200.0 * cf.exp_tau(params)


def _batch(args, params: ModelParams, horizon: float, checkpoints=None):
    """The --paths paths of a report, on stream 0 of the seed."""
    config = SimConfig(dt=args.dt, horizon=horizon)
    rng = RngStream(args.seed, 0).generator()
    return run_batch(params, config, args.paths, rng, checkpoints=checkpoints)


def _params_dict(params: ModelParams) -> dict:
    return {"q": params.q, "p": params.p, "alpha": params.alpha, "beta": params.beta}


def _cmd_formulas(args) -> int:
    params = _model(args)
    _emit(args, {"params": _params_dict(params), **ClosedForms.from_params(params).as_dict()})
    return 0


def _cmd_simulate(args) -> int:
    params = _model(args)
    config = SimConfig(
        dt=args.dt, horizon=_horizon(args, params), record_stride=args.record_stride
    )
    rows = []
    for path_id in range(args.paths):
        rng = RngStream(args.seed, path_id).generator()
        records = simulate_path(
            params, config, rng, with_distance=not args.no_distance
        )
        for r in records:
            rows.append(
                {
                    "path": path_id,
                    "t": r.t,
                    "x": r.x,
                    "Y": r.y,
                    "vertex": repr(r.vertex),
                    "n_t": r.n_events,
                    "dist": r.dist,
                }
            )
    with _output(args) as fh:
        if args.format == "csv":
            fh.write("path,t,x,Y,vertex,n_t,dist\n")
            for row in rows:
                dist = "" if row["dist"] is None else repr(row["dist"])
                fh.write(
                    f"{row['path']},{row['t']!r},{row['x']!r},{row['Y']!r},"
                    f"\"{row['vertex']}\",{row['n_t']},{dist}\n"
                )
        else:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return 0


def _cmd_skeleton(args) -> int:
    params = _model(args)
    with _output(args) as fh:
        for path_id in range(args.paths):
            rng = RngStream(args.seed, path_id).generator()
            states = run_skeleton(params, args.steps, rng)
            for st in states:
                fh.write(
                    json.dumps(
                        {
                            "path": path_id,
                            "n": st.step,
                            "tau": st.clock,
                            "hor": st.hor,
                            "vertex": repr(st.vertex),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
    return 0


def _cmd_escape(args) -> int:
    params = _model(args)
    horizon = _horizon(args, params)
    run = _batch(args, params, horizon)
    points, dists = final_points_and_distances(run)
    rate = analysis.estimate_escape_rate(dists, horizon)
    root = TreeVertex.root(params.p)
    tree_rate = analysis.SampleSummary.from_samples(
        [params.log_q * tree_distance(w, root) / horizon for w in points]
    )
    _emit(
        args,
        {
            "seed": args.seed,
            "params": _params_dict(params),
            "horizon": horizon,
            "paths": args.paths,
            "target_rate": abs(cf.escape_rate(params)),
            "distance_rate": rate.as_dict(),
            "tree_rate": tree_rate.as_dict(),
        },
    )
    return 0


def _cmd_clt(args) -> int:
    params = _model(args)
    horizon = _horizon(args, params)
    run = _batch(args, params, horizon)
    report = {
        "seed": args.seed,
        "params": _params_dict(params),
        "horizon": horizon,
        "paths": args.paths,
        "kind": args.kind,
    }
    if args.kind == "vertical":
        ks = analysis.vertical_clt(params, run.y, horizon)
        report["ks"] = ks.statistic
    else:
        dists = final_points_and_distances(run)[1]
        if args.kind == "distance":
            if cf.is_critical(params):
                print("distance CLT needs nonzero drift; use --kind driftfree", file=sys.stderr)
                return 1
            report["ks"] = analysis.distance_clt(params, dists, horizon).statistic
        else:
            if not cf.is_critical(params):
                print("drift-free CLT needs zero drift; use --kind distance", file=sys.stderr)
                return 1
            limit = analysis.draw_limit_samples(
                params, args.limit_samples, RngStream(args.seed, 1).generator()
            )
            report["ks"] = analysis.drift_free_clt(params, dists, horizon, limit).statistic
    _emit(args, report)
    return 0


def _cmd_exit_measure(args) -> int:
    params = _model(args)
    em = first_exit_batch(
        params,
        args.samples,
        RngStream(args.seed, 0).generator(),
        dt=args.dt,
        start_level=args.start_level,
        start_x=args.start_x,
    )
    masses = em.line_masses()
    pulled_back = em.pulled_back_x()
    _emit(
        args,
        {
            "seed": args.seed,
            "params": _params_dict(params),
            "samples": args.samples,
            "start_level": args.start_level,
            "start_x": args.start_x,
            "line_masses": masses.tolist(),
            "expected_masses": em.expected_masses().tolist(),
            # the skewness is scale free: of the pulled-back abscissae it is
            # that of em.x, without cubing raw abscissae of size q**start_level
            "x_skewness": analysis.skewness(pulled_back),
            "x_summary": analysis.SampleSummary.from_samples(pulled_back).as_dict(),
        },
    )
    return 0


def _cmd_boundary(args) -> int:
    params = _model(args)
    horizon = _horizon(args, params)
    regime = cf.classify_regime(params)
    critical = regime is cf.Regime.CRITICAL
    cps = [horizon / 4.0, horizon / 2.0, 3.0 * horizon / 4.0] if critical else None
    run = _batch(args, params, horizon, cps)
    report = {
        "seed": args.seed,
        "params": _params_dict(params),
        "horizon": horizon,
        "paths": args.paths,
        "regime": regime.value,
    }
    if regime is cf.Regime.UPWARD:
        points = final_tree_points(run)
        root = TreeVertex.root(params.p)
        children = root.successors()
        report["level1_masses"] = analysis.cone_masses(points, children).tolist()
        report["level1_oracle"] = analysis.cone_hitting_probability(params, 1)
        grand = [w for v in children for w in v.successors()]
        report["level2_masses"] = analysis.cone_masses(points, grand).tolist()
        report["level2_oracle"] = analysis.cone_hitting_probability(params, 2)
    elif regime is cf.Regime.DOWNWARD:
        pool = first_exit_batch(
            params, max(args.paths, 5000), RngStream(args.seed, 1).generator(), dt=args.dt
        )
        series = analysis.zinf_series_samples(
            pool.side, pool.x, params.q, args.paths, RngStream(args.seed, 2).generator()
        )
        report["ks_series"] = analysis.ks_two_sample(run.x, series).statistic
        report["x_summary"] = analysis.SampleSummary.from_samples(run.x).as_dict()
    else:
        cp_t = np.append(run.checkpoint_times, horizon)
        report["diagnostics"] = analysis.critical_diagnostics(cp_t, run.state["x"], run.zero_visits)
    _emit(args, report)
    return 0


def _cmd_bs_word(args) -> int:
    try:
        el = bs_word(args.word, args.p)
    except ValueError as exc:
        print(f"invalid word: {exc}", file=sys.stderr)
        return 1
    _emit(
        args,
        {
            "p": args.p,
            "word": args.word,
            "level_shift": el.phi,
            "translation": repr(el.gamma.c),
            "halfplane_map": f"z -> {args.p}^{el.g.n} z + {el.g.b!r}",
            "modular": modular(el),
        },
    )
    return 0


def _cmd_verify(args) -> int:
    suite = AcceptanceSuite(quick=args.quick, seed=args.seed)
    failed = 0
    for res in suite.run_all():
        print(res.line())
        for line in res.details:
            print("   " + line)
        failed += not res.passed
    print(f"{11 - failed}/11 criteria passed" + (" (quick mode)" if args.quick else ""))
    return 3 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="treebolic", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--emit-config",
        action="store_true",
        help="echo the resolved configuration as JSON before running",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formulas", help="print all closed-form scalars as JSON")
    _add_model_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_formulas)

    p = sub.add_parser("simulate", help="dump full trajectories")
    _add_model_flags(p)
    _add_run_flags(p, paths_default=1)
    p.add_argument(
        "--record-stride", type=int, default=100, metavar="N", help="a record every N*dt of simulated time"
    )
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--no-distance", action="store_true", help="skip distance column")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("skeleton", help="dump induced-walk samples as JSONL")
    _add_model_flags(p)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("escape", help="estimate the rate of escape")
    _add_model_flags(p)
    _add_run_flags(p, paths_default=200)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_escape)

    p = sub.add_parser("clt", help="central-limit comparisons")
    _add_model_flags(p)
    _add_run_flags(p, paths_default=2000)
    p.add_argument("--kind", choices=("vertical", "distance", "driftfree"), default="vertical")
    p.add_argument("--limit-samples", type=int, default=10000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("exit-measure", help="first-exit histogram from a line start")
    _add_model_flags(p)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-level", type=int, default=0)
    p.add_argument("--start-x", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exit_measure)

    p = sub.add_parser("boundary", help="regime-appropriate boundary diagnostics")
    _add_model_flags(p)
    _add_run_flags(p, paths_default=2000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("bs-word", help="evaluate a two-generator group word")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("word", help="tokens a, b, a^-1, b^-1 (or a compact string like 'ab')")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bs_word)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true", help="reduced sample sizes")
    p.add_argument("--seed", type=int, default=MASTER_SEED)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.emit_config:
            resolved = {k: v for k, v in vars(args).items() if k not in ("func", "emit_config")}
            print(json.dumps(resolved, indent=2, sort_keys=True, default=str))
        _check_flags(args)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has what it wanted (`| head`); point stdout at devnull
        # so that the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
