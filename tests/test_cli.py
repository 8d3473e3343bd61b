import json
import os
import re
import subprocess
import sys

import pytest

from treebolic.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["formulas", "--p", "2", "--alpha", "1", "--beta", "0.5"])
        assert exc.value.code == 1
        assert "--q" in capsys.readouterr().err

    def test_non_integer_branching(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["formulas", "--q", "2", "--p", "2.5", "--alpha", "1", "--beta", "1"])
        assert exc.value.code == 1

    def test_invalid_domain_values(self, capsys):
        assert main(["formulas", "--q", "0.5", "--p", "2", "--alpha", "1", "--beta", "1"]) == 1
        assert "invalid parameters" in capsys.readouterr().err
        assert main(["escape", "--q", "2", "--p", "2", "--alpha", "nan", "--beta", "1"]) == 1
        assert "invalid parameters" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


_MODEL = ["--q", "2", "--p", "2", "--alpha", "1", "--beta", "1"]


class TestFlagRanges:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["escape", *_MODEL, "--dt", "0.05"], "--dt"),
            (["escape", *_MODEL, "--paths", "0"], "--paths"),
            (["simulate", *_MODEL, "--record-stride", "0"], "--record-stride"),
            (["escape", *_MODEL, "--horizon", "-1"], "--horizon"),
            (["simulate", *_MODEL, "--horizon", "1e-5"], "--horizon"),
            (["escape", *_MODEL, "--horizon", "inf"], "--horizon"),
            (["escape", *_MODEL, "--horizon", "nan"], "--horizon"),
            (["exit-measure", *_MODEL, "--start-x", "nan"], "--start-x"),
            (["exit-measure", *_MODEL, "--start-x=-inf"], "--start-x"),
            # q**level overflows at level 1024 for q = 2; the bound is half that
            (["exit-measure", *_MODEL, "--start-level", "1100"], "--start-level"),
            (["exit-measure", *_MODEL, "--start-level=-513"], "--start-level"),
            # the skewness of one sample divides by zero
            (["exit-measure", *_MODEL, "--samples", "1"], "--samples"),
        ],
    )
    def test_out_of_range_flag_is_a_usage_error(self, capsys, argv, flag):
        assert main(argv) == 1
        assert flag in capsys.readouterr().err


class TestFormulas:
    def test_critical_parameters(self, capsys):
        code, out = run_cli(
            capsys, "formulas", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rho"] == pytest.approx(1.0)
        assert payload["regime"] == "critical"
        assert payload["ell"] == 0.0
        assert payload["exp_tau"] == pytest.approx(0.2402265069591007)

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "formulas.json"
        code, _ = run_cli(
            capsys,
            "formulas", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "1",
            "--out", str(out_file),
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["regime"] == "upward"


class TestSimulate:
    ARGS = [
        "simulate", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "0.5",
        "--dt", "1e-3", "--horizon", "0.05", "--paths", "2", "--seed", "7",
        "--record-stride", "10",
    ]

    def test_deterministic_bytes(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(f1)]) == 0
        assert main(self.ARGS + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_csv_structure(self, tmp_path):
        f = tmp_path / "run.csv"
        assert main(self.ARGS + ["--out", str(f)]) == 0
        lines = f.read_text().strip().splitlines()
        assert lines[0] == "path,t,x,Y,vertex,n_t,dist"
        assert all(line.split(",")[0] in ("0", "1") for line in lines[1:])

    def test_jsonl_records(self, tmp_path):
        f = tmp_path / "run.jsonl"
        assert main(self.ARGS + ["--format", "jsonl", "--no-distance", "--out", str(f)]) == 0
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        assert {r["path"] for r in rows} == {0, 1}
        assert all(r["dist"] is None for r in rows)
        t_prev = -1.0
        for r in rows:
            if r["path"] == 0:
                assert r["t"] > t_prev
                t_prev = r["t"]


class TestSkeletonDump:
    def test_jsonl_and_telescoping(self, tmp_path):
        f = tmp_path / "skel.jsonl"
        code = main(
            ["skeleton", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "1",
             "--steps", "20", "--paths", "1", "--seed", "3",
             "--out", str(f)]
        )
        assert code == 0
        rows = [json.loads(line) for line in f.read_text().splitlines()]
        assert len(rows) == 21
        for a, b in zip(rows, rows[1:]):
            assert abs(b["hor"] - a["hor"]) == 1
            assert b["tau"] > a["tau"]

    def test_sojourns_the_sampler_would_clip_are_refused(self, capsys):
        # F(t_min) = 8.7e-3 at these parameters: a numerical failure, no dump
        assert main(["skeleton", "--q", "8", "--p", "4", "--alpha", "-40", "--beta", "5"]) == 2
        out = capsys.readouterr()
        assert not out.out and "below t_min" in out.err

    def test_skeleton_has_no_step_size(self, capsys):
        # line-start sojourns are exact, so the dump has no dt to set
        with pytest.raises(SystemExit) as exc:
            main(["skeleton", *_MODEL, "--dt", "1e-3"])
        assert exc.value.code == 1
        assert "--dt" in capsys.readouterr().err


def test_closed_stdout_pipe_exits_cleanly():
    # `treebolic simulate ... | head -2`: the reader closes the pipe while
    # the dump (about 2000 rows, beyond a pipe buffer) is being written
    argv = ["simulate", *_MODEL, "--horizon", "0.2", "--record-stride", "1",
            "--no-distance", "--seed", "7"]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "treebolic.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert lines[0] == b"path,t,x,Y,vertex,n_t,dist\n"
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


class TestAnalysisCommands:
    def test_escape_report(self, capsys):
        code, out = run_cli(
            capsys,
            "escape", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "1",
            "--dt", "1e-3", "--horizon", "2.0", "--paths", "40", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["target_rate"] == pytest.approx(0.9617966939259756)
        assert payload["distance_rate"]["n"] == 40
        assert payload["tree_rate"]["mean"] > 0

    def test_clt_vertical(self, capsys):
        code, out = run_cli(
            capsys,
            "clt", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "0.5",
            "--dt", "1e-3", "--horizon", "3.0", "--paths", "300", "--seed", "2",
            "--kind", "vertical",
        )
        assert code == 0
        assert 0.0 <= json.loads(out)["ks"] <= 0.2

    def test_clt_kind_guard(self, capsys):
        code = main(
            ["clt", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "0.5",
             "--dt", "1e-3", "--horizon", "0.5", "--paths", "20", "--kind", "distance"]
        )
        assert code == 1

    def test_clt_near_critical_parameters_are_drift_free(self, capsys):
        # beta typed to six digits for rho = 1 (1/(2 sqrt 3) at q = 3)
        flags = ["--q", "3", "--p", "2", "--alpha", "0.5", "--beta", "0.288675",
                 "--dt", "1e-3", "--horizon", "0.5", "--paths", "20", "--limit-samples", "200"]
        code, out = run_cli(capsys, "clt", *flags, "--kind", "driftfree")
        assert code == 0
        assert 0.0 <= json.loads(out)["ks"] <= 1.0
        assert main(["clt", *flags, "--kind", "distance"]) == 1

    def test_exit_measure_report(self, capsys):
        code, out = run_cli(
            capsys,
            "exit-measure", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "0.75",
            "--samples", "2000", "--dt", "1e-3", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["line_masses"]) == 3
        assert sum(payload["line_masses"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("level", ["400", "-512"])
    def test_exit_measure_far_from_the_base_line(self, capsys, level):
        # the same draws pulled back from level 400 (abscissae near 2**400,
        # whose cubes overflow) or -512 read as from level 0
        flags = [*_MODEL, "--samples", "50", "--dt", "1e-3", "--seed", "3"]
        reports = []
        for start in ("0", level):
            code, out = run_cli(capsys, "exit-measure", *flags, "--start-level", start)
            assert code == 0
            reports.append(json.loads(out))
        base, far = reports
        assert far["line_masses"] == base["line_masses"]
        assert far["x_skewness"] == pytest.approx(base["x_skewness"], rel=1e-9)
        assert far["x_summary"]["variance"] == pytest.approx(base["x_summary"]["variance"], rel=1e-9)

    def test_exit_measure_where_the_increments_round_away(self, capsys):
        # added to an abscissa of 1e17 (spacing 16) the O(1) exit increments
        # would round to 0; the pulled-back sample is the displacement, so
        # every start abscissa reads as 0
        flags = [*_MODEL, "--samples", "50", "--dt", "1e-3", "--seed", "3"]
        reports = []
        for start in ("0", "1e15", "1e16", "1e17"):
            code, out = run_cli(capsys, "exit-measure", *flags, "--start-x", start)
            assert code == 0
            reports.append({k: json.loads(out)[k] for k in ("line_masses", "x_skewness", "x_summary")})
        assert all(report == reports[0] for report in reports)

    def test_boundary_critical(self, capsys):
        code, out = run_cli(
            capsys,
            "boundary", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "0.5",
            "--dt", "1e-3", "--horizon", "1.0", "--paths", "50", "--seed", "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "critical"
        assert "median_abs_x" in payload["diagnostics"]

    def test_boundary_upward(self, capsys):
        code, out = run_cli(
            capsys,
            "boundary", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "2",
            "--dt", "1e-3", "--horizon", "1.5", "--paths", "100", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "upward"
        assert len(payload["level1_masses"]) == 2
        assert 0 < payload["level1_oracle"] < 0.5

    def test_boundary_downward(self, capsys):
        code, out = run_cli(
            capsys,
            "boundary", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "0.25",
            "--dt", "1e-3", "--horizon", "1.5", "--paths", "100", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "downward"
        assert 0 < payload["ks_series"] < 1
        assert payload["x_summary"]["n"] == 100


class TestBsWord:
    def test_relation_agrees(self, capsys):
        _, out1 = run_cli(capsys, "bs-word", "--p", "2", "a b")
        _, out2 = run_cli(capsys, "bs-word", "--p", "2", "b b a")
        p1, p2 = json.loads(out1), json.loads(out2)
        for key in ("level_shift", "translation", "halfplane_map"):
            assert p1[key] == p2[key]

    def test_invalid_word(self, capsys):
        assert main(["bs-word", "--p", "2", "a q"]) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_emit_config(capsys):
    code, out = run_cli(
        capsys,
        "--emit-config", "formulas", "--q", "2", "--p", "2", "--alpha", "1", "--beta", "1",
    )
    assert code == 0
    config_doc, payload_doc = out.split("}\n{", 1)
    assert json.loads(config_doc + "}")["command"] == "formulas"
    assert json.loads("{" + payload_doc)["rho"] == pytest.approx(2.0)


def test_verify_quick(capsys):
    # reduced-size smoke run of the acceptance suite; quick mode widens the
    # statistical thresholds, so all eleven criteria pass
    code = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 11
    assert "11/11 criteria passed (quick mode)" in out
    # each criterion's line ends with its wall time
    timed = re.findall(r"^\[PASS\] criterion \d+: .+ \(\d+\.\d s\)$", out, flags=re.MULTILINE)
    assert len(timed) == 11
