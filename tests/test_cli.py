import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import polya_bernstein
from polya_bernstein import analysis, operators, reports
from polya_bernstein.cli import cli, main
from polya_bernstein.reports import GridSpec


@pytest.fixture
def runner():
    return CliRunner()


def run_main(args, env=None):
    """Invoke the installed entry point in a subprocess (exit codes, stderr)."""
    cmd = [sys.executable, "-m", "polya_bernstein.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


class TestEval:
    def test_rn_endpoint(self, runner):
        res = runner.invoke(cli, ["eval", "--op", "rn", "--fn", "abs-mid", "--n", "6", "--x", "0"])
        assert res.exit_code == 0
        assert res.output.strip() == "0.5"

    def test_bernstein_hand_sum(self, runner):
        res = runner.invoke(
            cli, ["eval", "--op", "bernstein", "--fn", "square", "--n", "2", "--x", "0.5"]
        )
        assert res.exit_code == 0
        assert res.output.strip() == "0.375"

    def test_rn_linear_reproduction(self, runner):
        res = runner.invoke(
            cli, ["eval", "--op", "rn", "--fn", "linear", "--n", "10", "--x", "0.73"]
        )
        assert res.exit_code == 0
        assert float(res.output) == pytest.approx(0.73, abs=1e-12)

    def test_grid_mode_csv(self, runner, tmp_path):
        out = tmp_path / "curve.csv"
        res = runner.invoke(
            cli,
            ["eval", "--op", "bernstein", "--fn", "square", "--n", "4",
             "--grid-points", "11", "--out", str(out)],
        )
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,fx,opx,error"
        assert len(lines) == 12

    def test_csv_function_source(self, runner, tmp_path):
        table = tmp_path / "f.csv"
        table.write_text("x,fx\n0,0\n1,1\n")
        res = runner.invoke(
            cli, ["eval", "--op", "rn", "--fn-csv", str(table), "--n", "5", "--x", "0.4"]
        )
        assert res.exit_code == 0
        assert float(res.output) == pytest.approx(0.4, abs=1e-12)


class TestScan:
    def test_sikkema_report(self, runner, tmp_path):
        out = tmp_path / "scan.json"
        res = runner.invoke(
            cli,
            ["scan", "--sikkema", "--n", "2..8", "--c-mode", "zero",
             "--points", "2001", "--workers", "1", "--out", str(out)],
        )
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert len(payload["per_n"]) == 7
        # the scan adds points BREAKPOINT_OFFSET either side of every jump
        assert payload["grid"] == {"points": 2001, "refine_breakpoints": True,
                                   "breakpoint_offset": reports.BREAKPOINT_OFFSET}

    def test_sikkema_rn_n6_bound(self, runner, tmp_path):
        out = tmp_path / "scan.json"
        res = runner.invoke(
            cli,
            ["scan", "--sikkema", "--n", "6..6", "--c-mode", "rn",
             "--workers", "1", "--out", str(out)],
        )
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["sup"] <= 1.0699134 + 1e-6

    def test_popoviciu_scan(self, runner, tmp_path):
        out = tmp_path / "ratio.json"
        res = runner.invoke(
            cli,
            ["scan", "--popoviciu", "--fn", "abs-mid", "--op", "rn", "--n", "2..10",
             "--points", "2001", "--workers", "1", "--out", str(out)],
        )
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["sup"] <= 1.08970
        assert payload["grid"] == {"points": 2001}  # a plain linspace, no jump refinement

    # (n, sup, argmax_x, omega) of `scan --popoviciu --fn sqrt --op bernstein
    # --n 2..12 --points 2001`, recorded from the deque-loop modulus.
    SQRT_BERNSTEIN_PIN = (
        (2, 0.21939334703389152, 0.1505, 0.8408923831264022),
        (3, 0.2014346185787497, 0.1075, 0.759802605944465),
        (4, 0.18902143357255344, 0.084, 0.7071067811865476),
        (5, 0.17969197593610112, 0.069, 0.6687301398920196),
        (6, 0.17229458766108122, 0.0585, 0.6389053137985315),
        (7, 0.1662052838062023, 0.0505, 0.6147357155721473),
        (8, 0.16105455233006774, 0.0445, 0.59455865984779),
        (9, 0.15661287037096283, 0.04, 0.5773214009544424),
        (10, 0.15272376880300503, 0.0365, 0.562316636780382),
        (11, 0.1492727881656833, 0.033, 0.5490901565316938),
        (12, 0.1461987063509788, 0.0305, 0.5372150407425317),
    )

    def test_popoviciu_output_is_pinned(self, runner):
        res = runner.invoke(
            cli,
            ["scan", "--popoviciu", "--fn", "sqrt", "--op", "bernstein", "--n", "2..12",
             "--points", "2001", "--workers", "1"],
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        pin = self.SQRT_BERNSTEIN_PIN
        assert [(e["n"], e["sup"], e["argmax_x"]) for e in payload["per_n"]] == [p[:3] for p in pin]
        assert (payload["argmax_n"], payload["sup"], payload["argmax_x"]) == pin[0][:3]
        f = operators.builtin_function("sqrt")
        for n, sup, x, omega in pin:
            rep = operators.popoviciu_scan(f, [n], GridSpec(points=2001), "bernstein")
            assert (rep.sup, rep.argmax_x) == (sup, x)
            assert operators.modulus_of_continuity(f, n ** -0.5) == omega

    def test_curves_csv_export(self, runner, tmp_path):
        out = tmp_path / "scan.json"
        curves = tmp_path / "curves.csv"
        res = runner.invoke(
            cli,
            ["scan", "--sikkema", "--n", "4..4", "--points", "1001",
             "--workers", "1", "--out", str(out), "--curves-csv", str(curves)],
        )
        assert res.exit_code == 0
        lines = curves.read_text().splitlines()
        assert lines[0] == "n,x,value"
        assert all(line.startswith("4,") for line in lines[1:])

    def test_curves_csv_computes_each_curve_once(self, monkeypatch, tmp_path):
        calls = []
        scan_curve = analysis.scan_curve

        def counted(n, *args, **kwargs):
            calls.append(n)
            return scan_curve(n, *args, **kwargs)

        monkeypatch.setattr(analysis, "scan_curve", counted)
        main(["scan", "--sikkema", "--n", "2..5", "--points", "1001", "--workers", "1",
              "--out", str(tmp_path / "scan.json"), "--curves-csv", str(tmp_path / "curves.csv")])
        assert calls == [2, 3, 4, 5]

    def test_sikkema_zero_majorant_bound(self, runner, tmp_path):
        out = tmp_path / "scan.json"
        res = runner.invoke(
            cli,
            ["scan", "--sikkema", "--c-mode", "zero", "--bound", "majorant",
             "--n", "6..6", "--workers", "1", "--out", str(out)],
        )
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["bound"] == "majorant"
        assert payload["sup"] == pytest.approx(1.0937852, abs=1e-7)

    def test_curves_csv_follows_scanned_bound(self, runner, tmp_path):
        for bound in ("bracket", "majorant"):
            out = tmp_path / f"{bound}.json"
            curves = tmp_path / f"{bound}.csv"
            res = runner.invoke(
                cli,
                ["scan", "--sikkema", "--c-mode", "zero", "--bound", bound,
                 "--n", "5..6", "--points", "1001", "--workers", "1",
                 "--out", str(out), "--curves-csv", str(curves)],
            )
            assert res.exit_code == 0
            payload = json.loads(out.read_text())
            assert payload["meta"]["bound"] == bound
            best = {}
            for line in curves.read_text().splitlines()[1:]:
                n, _, value = line.split(",")
                best[int(n)] = max(best.get(int(n), -1.0), float(value))
            assert best == {e["n"]: e["sup"] for e in payload["per_n"]}

    def test_bound_needs_sikkema(self, runner):
        res = runner.invoke(
            cli, ["scan", "--popoviciu", "--fn", "abs-mid", "--n", "2..3", "--bound", "bracket"]
        )
        assert res.exit_code == 2

    def test_requires_mode(self, runner):
        res = runner.invoke(cli, ["scan", "--n", "2..4"])
        assert res.exit_code == 2


class TestVerify:
    def test_passing_checks_exit_zero(self):
        res = run_main(
            ["verify", "--lemma", "--kozniewska", "--n", "2..6",
             "--points", "501", "--c-samples", "5", "--workers", "1"]
        )
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert all(r["passed"] for r in payload["reports"])

    def test_lemma_strictness_survives_underflow(self):
        # at x = 0.9995 both sides underflow to 0 for n >= 99; the log
        # ratio still shows the inequality strict
        res = run_main(["verify", "--lemma", "--n", "100", "--points", "2001", "--workers", "1"])
        assert res.returncode == 0, res.stdout
        assert json.loads(res.stdout)["reports"][0]["details"]["strict_ok"]

    def test_n6_check(self):
        res = run_main(["verify", "--n6", "--workers", "1"])
        assert res.returncode == 0

    def test_conjecture_is_exploratory(self):
        res = run_main(
            ["verify", "--conjecture", "--n", "2..5", "--points", "501",
             "--c-samples", "5", "--workers", "1"]
        )
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert "finding" in payload["reports"][0]

    def test_one_pool_for_every_sweep_check(self, monkeypatch, serial_pool, capsys):
        monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
        main(["verify", "--lemma", "--conjecture", "--n", "2..6", "--points", "201",
              "--c-samples", "3", "--workers", "2"])
        assert serial_pool == [2]
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["claim_id"] for r in reports] == [
            "rising-factorial-inequality", "monotone-in-c-conjecture"]

    def test_only_a_failed_check_exits_1(self, monkeypatch, capsys):
        # a negative tolerance fails the lemma and turns the conjecture into
        # a finding, which is exploratory and does not fail the run
        monkeypatch.setattr(analysis, "LEMMA_TOL", -1.0)
        args = ["--n", "2..6", "--points", "201", "--c-samples", "3", "--workers", "1"]
        main(["verify", "--conjecture", "--n6", *args])
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [(r["claim_id"], r["passed"], r.get("finding")) for r in reports] == [
            ("n6-case", True, None), ("monotone-in-c-conjecture", False, True)]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--lemma", "--conjecture", *args])
        assert exc.value.code == 1

    def test_requires_selection(self):
        res = run_main(["verify"])
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "error"


class TestCompare:
    def test_writes_error_profiles(self, runner, tmp_path):
        out = tmp_path / "cmp.csv"
        res = runner.invoke(
            cli, ["compare", "--fn", "abs-mid", "--n", "6", "--points", "101", "--out", str(out)]
        )
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,err_bernstein,err_rn"
        assert len(lines) == 102


class TestFailurePaths:
    def test_unknown_function_json_error(self):
        res = run_main(["eval", "--op", "rn", "--fn", "nope", "--n", "6", "--x", "0.5"])
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["schema"] == 1
        assert "nope" in err["message"]

    def test_usage_error_json(self):
        res = run_main(["scan", "--sikkema", "--n", "9..2"])
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"] == "usage"

    @pytest.mark.parametrize("args", [
        ["scan", "--sikkema", "--n", "a..b"],
        ["verify", "--lemma", "--n", "2..3.5"],
        ["verify", "--lemma", "--n", "two"],
    ])
    def test_n_range_that_is_not_integers_is_usage_error(self, capsys, args):
        # a usage error that names the text, not int()'s ValueError
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "usage" and repr(args[-1]) in err["message"]

    def test_bad_workers(self):
        res = run_main(["scan", "--sikkema", "--n", "2..3", "--workers", "0"])
        assert res.returncode == 2

    def test_workers_has_one_setting(self):
        """--workers is the only worker setting: PB_WORKERS, whatever it
        holds, leaves a run as it is unset, and a bad --workers is a usage
        error."""
        args = ["verify", "--lemma", "--n", "2..3", "--points", "201"]
        env = {k: v for k, v in os.environ.items() if k != "PB_WORKERS"}
        unset = run_main(args, env)
        assert unset.returncode == 0
        for value in ("abc", "0"):
            res = run_main(args, {**env, "PB_WORKERS": value})
            assert (res.returncode, res.stdout, res.stderr) == (0, unset.stdout, unset.stderr)
        for value in ("0", "abc"):
            res = run_main([*args, "--workers", value], env)
            assert res.returncode == 2
            err = json.loads(res.stderr)
            assert err["error"] == "usage" and "--workers" in err["message"]

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch, serial_pool, capsys):
        # pinned to 2 of 64 CPUs, the sweep over 39 n starts 2 workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        main(["verify", "--lemma", "--n", "2..40", "--points", "101", "--c-samples", "1"])
        assert serial_pool == [2]
        assert json.loads(capsys.readouterr().out)["reports"][0]["passed"]

    @pytest.mark.parametrize(
        "table, complaint",
        [
            ("x,fx\n0,0\n0.5\n1,1\n", "line 3: expected 2 values"),
            ("x,fx\n0,0\n0.5,nan\n1,1\n", "line 3: values must be finite"),
            ("x,fx\n0,0\ninf,0.5\n1,1\n", "line 3: values must be finite"),
            ("x,fx\n0,0\n0.5,abc\n1,1\n", "line 3: values must be numbers"),
        ],
    )
    def test_bad_csv_rows_name_the_line(self, tmp_path, table, complaint):
        path = tmp_path / "f.csv"
        path.write_text(table)
        res = run_main(["eval", "--op", "rn", "--fn-csv", str(path), "--n", "5", "--x", "0.4"])
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "error"
        assert complaint in err["message"]

    @pytest.mark.parametrize("args", [["--n", "2", "--points", "3"],
                                      ["--n", "2..3", "--points", "2"]])
    def test_conjecture_sweep_that_checks_nothing(self, args):
        res = run_main(["verify", "--conjecture", *args])
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err["kind"] == "error" and "--points" in err["message"]

    @pytest.mark.parametrize("x", ["0.0", "0.5", "1.0"])
    def test_rn_rejects_n_one_at_every_x(self, capsys, x):
        # R_n needs n > 1, also at the endpoints where the pmf is a point mass
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--op", "rn", "--fn", "sqrt", "--n", "1", "--x", x])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["kind"] == "error" and "requires n > 1" in err["message"]

    def test_zero_c_samples_is_usage_error(self):
        res = run_main(["verify", "--lemma", "--n", "2..3", "--c-samples", "0"])
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"] == "usage"
        assert "--c-samples" in err["message"]

    @pytest.mark.parametrize(
        "args, complaint",
        [
            (["eval", "--op", "bernstein", "--x", "0.3", "--c", "0.5"], "--c"),
            (["eval", "--op", "rn", "--x", "0.3", "--c", "0.5"], "--c"),
            (["eval", "--op", "rn", "--grid-points", "0", "--out", "{tmp}"], "--grid-points"),
            (["eval", "--op", "rn", "--grid-points", "1", "--out", "{tmp}"], "--grid-points"),
            (["compare", "--points", "0", "--out", "{tmp}"], "--points"),
            (["compare", "--points", "1", "--out", "{tmp}"], "--points"),
            (["eval", "--op", "polya", "--x", "0.3"], "--c"),
            (["eval", "--op", "rn"], "--x or --grid-points"),
            (["eval", "--op", "rn", "--x", "0.3", "--grid-points", "11", "--out", "{tmp}"],
             "--x or --grid-points"),
        ],
    )
    def test_eval_and_compare_option_checks(self, tmp_path, capsys, args, complaint):
        out = tmp_path / "out.csv"
        args = [a.format(tmp=out) for a in args] + ["--fn", "sin-pi", "--n", "5"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and complaint in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, complaint",
        [
            (["eval", "--op", "rn", "--n", "5", "--x", "0.3"], "--fn or --fn-csv"),
            (["eval", "--op", "rn", "--fn", "sqrt", "--fn-csv", "{table}", "--n", "5", "--x", "0.3"],
             "--fn or --fn-csv"),
            (["compare", "--fn", "sqrt", "--n", "1", "--out", "{tmp}"], "n > 1"),
            (["compare", "--n", "5", "--out", "{tmp}"], "--fn or --fn-csv"),
        ],
    )
    def test_function_source_and_compare_n(self, tmp_path, capsys, args, complaint):
        out, table = tmp_path / "out.csv", tmp_path / "table.csv"
        table.write_text("x,fx\n0,0\n1,1\n")
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=out, table=table) for a in args])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)  # the whole of stderr is one JSON object
        assert err["error"] == "usage" and complaint in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, complaint",
        [
            # 1000 factors near 1e300: the pmf products overflow
            (["eval", "--op", "polya", "--fn", "sin-pi", "--x", "0.3", "--n", "1000",
              "--c", "1e300"], "pmf entry overflows for n=1000"),
            # values near the float max: the sum over f(k/n) is not finite
            (["eval", "--op", "rn", "--fn-csv", "{table}", "--n", "10", "--x", "0.3"],
             "invalid value"),
            (["compare", "--fn-csv", "{table}", "--n", "5", "--points", "11", "--out", "{tmp}"],
             "invalid value"),
        ],
    )
    def test_floating_point_errors_exit_2_with_one_json_line(self, tmp_path, args, complaint):
        # in a fresh process, where no test harness turns warnings into errors
        out, table = tmp_path / "out.csv", tmp_path / "big.csv"
        table.write_text("x,fx\n0,1e308\n0.5,-1e308\n1,1e308\n")
        res = run_main([a.format(tmp=out, table=table) for a in args])
        assert res.returncode == 2 and res.stdout == ""
        (line,) = res.stderr.splitlines()  # no numpy warning ahead of the JSON error
        assert complaint in json.loads(line)["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, complaint",
        [
            (["--popoviciu", "--fn", "sqrt", "--curves-csv", "{tmp}"], "--curves-csv"),
            (["--sikkema", "--fn", "sqrt"], "--fn"),
            (["--sikkema", "--fn-csv", "{table}"], "--fn-csv"),
            (["--sikkema", "--op", "bernstein"], "--op"),
            (["--popoviciu", "--fn", "sqrt", "--c-mode", "rn"], "--c-mode"),
            (["--popoviciu", "--fn", "sqrt", "--bound", "bracket"], "--bound"),
        ],
    )
    def test_scan_options_of_the_other_mode(self, tmp_path, capsys, args, complaint):
        out, table = tmp_path / "curves.csv", tmp_path / "table.csv"
        table.write_text("x,fx\n0,0\n1,1\n")
        args = [a.format(tmp=out, table=table) for a in args]
        with pytest.raises(SystemExit) as exc:
            main(["scan", *args, "--n", "2..3", "--points", "1001", "--workers", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "usage" and complaint in err["message"]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    def test_non_finite_c_is_rejected(self, c):
        res = run_main(["eval", "--op", "polya", "--fn", "square", "--n", "3", "--x", "0.4",
                        "--c", c])
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)  # one JSON object, no warnings ahead of it
        assert err["kind"] == "error" and "finite" in err["message"]

    def test_c_whose_step_overflows_is_rejected_without_warnings(self):
        res = run_main(["eval", "--op", "polya", "--c", "1e308", "--fn", "sqrt", "--n", "5",
                        "--x", "0.5"])
        assert res.returncode == 2 and res.stdout == ""
        (line,) = res.stderr.splitlines()  # the JSON error alone, no numpy warnings
        err = json.loads(line)
        assert err["error"] == "AdmissibilityError" and "not finite" in err["message"]
        # (n-1)c = 1.99e302 stays finite; the first draw decides every later
        # one, so the value is (f(0) + f(1))/2
        res = run_main(["eval", "--op", "polya", "--c", "1e300", "--fn", "sqrt", "--n", "200",
                        "--x", "0.5"])
        assert res.returncode == 0 and res.stdout == "0.5\n" and res.stderr == ""

    def test_grid_mode_needs_out_before_computing(self, monkeypatch, capsys):
        def boom(*args):
            raise RuntimeError("curve computed")

        monkeypatch.setattr(operators, "operator_curve", boom)
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--op", "rn", "--fn", "sin-pi", "--n", "5", "--grid-points", "11"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage" and "--out" in err["message"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_curves_csv_into_a_missing_directory_fails_before_any_curve(
            self, monkeypatch, serial_pool, capsys, tmp_path, workers):
        def boom(*args, **kwargs):
            raise RuntimeError("curve computed")

        monkeypatch.setattr(analysis, "scan_curve", boom)
        monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--sikkema", "--n", "2..5", "--points", "1001", "--workers", workers,
                  "--curves-csv", str(tmp_path / "missing" / "curves.csv")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == "FileNotFoundError"
        assert captured.out == "" and serial_pool == []

    def test_unexpected_exception_exits_2_with_json(self, monkeypatch, capsys):
        def boom():
            raise RuntimeError("unexpected")

        monkeypatch.setattr(analysis, "n6_case_check", boom)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n6"])
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"schema": 1, "kind": "error", "error": "RuntimeError",
                       "message": "unexpected"}


class TestDeterminism:
    def test_identical_json_across_worker_counts(self, tmp_path):
        args = ["scan", "--sikkema", "--n", "2..8", "--points", "2001"]
        a = run_main([*args, "--workers", "1", "--out", str(tmp_path / "a.json")])
        b = run_main([*args, "--workers", "3", "--out", str(tmp_path / "b.json")])
        assert a.returncode == b.returncode == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("c_mode", ["zero", "rn"])
    def test_identical_json_and_curves_across_worker_counts(self, tmp_path, c_mode):
        args = ["scan", "--sikkema", "--n", "2..12", "--points", "1001", "--c-mode", c_mode]
        outputs = []
        for workers in ("1", "2"):
            out, curves = tmp_path / f"{workers}.json", tmp_path / f"{workers}.csv"
            res = run_main([*args, "--workers", workers, "--out", str(out),
                            "--curves-csv", str(curves)])
            assert res.returncode == 0, res.stderr
            outputs.append((out.read_bytes(), curves.read_bytes()))
        assert outputs[0] == outputs[1]


class TestResources:
    def test_cli_import_leaves_scipy_unloaded(self):
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, polya_bernstein.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert res.stdout.strip() == "False"

    def test_serial_run_leaves_multiprocessing_unloaded(self):
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys; from polya_bernstein.cli import main; "
             "main(['verify', '--lemma', '--n', '2..3', '--points', '201', '--workers', '1']); "
             "print('multiprocessing' in sys.modules, file=sys.stderr)"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert res.stderr.strip() == "False"

    def test_bracket_scan_memory_is_bounded(self, tmp_path, peak_rss):
        """The n = 200 bracket scan holds column blocks, not the whole
        (n+1) x M pmf (about 300 MiB unblocked), and blocking changes no
        output bit."""
        args = ["scan", "--sikkema", "--n", "200", "--points", "10001", "--workers", "1"]
        blocked = tmp_path / "blocked.json"
        whole = tmp_path / "whole.json"
        exit_code, peak_mib = peak_rss(
            "import sys; from polya_bernstein.cli import main; main(sys.argv[1:])",
            *args, "--out", str(blocked))
        assert exit_code == 0
        exit_code, _ = peak_rss(
            "import sys; from polya_bernstein import analysis; "
            "analysis.BLOCK_BYTES = 1 << 62; "
            "from polya_bernstein.cli import main; main(sys.argv[1:])",
            *args, "--out", str(whole))
        assert exit_code == 0
        assert peak_mib < 150
        assert blocked.read_bytes() == whole.read_bytes()

    def test_majorant_scan_memory_is_bounded(self, tmp_path, peak_rss):
        """f_n_c_curve does all its per-point work in chunks: unchunked, the
        1,000,001-point n = 200 majorant scan peaked at 248 MiB, and with
        its gathers and index built at full size before the chunks, at
        106.5 MiB."""
        exit_code, peak_mib = peak_rss(
            "import sys; from polya_bernstein.cli import main; main(sys.argv[1:])",
            "scan", "--sikkema", "--c-mode", "rn", "--n", "200", "--points", "1000001",
            "--workers", "1", "--out", str(tmp_path / "scan.json"))
        assert exit_code == 0
        assert peak_mib < 95

    def test_verifier_peaks_near_the_import(self, tmp_path, peak_rss):
        """The benchmark's lemma and Kozniewska sweep stays within 9 MiB of a
        bare import of the CLI: 2 MiB blocks and an unchunked reflection
        read about 13 MiB above it."""
        _, import_mib = peak_rss("import polya_bernstein.cli")
        exit_code, peak_mib = peak_rss(
            "import sys; from polya_bernstein.cli import main; main(sys.argv[1:])",
            "verify", "--lemma", "--kozniewska", "--n", "2..40", "--points", "2001",
            "--c-samples", "21", "--workers", "1", "--out", str(tmp_path / "verify.json"))
        assert exit_code == 0
        assert peak_mib - import_mib < 9

    @pytest.mark.parametrize("args", [
        ["scan", "--sikkema", "--n", "2..4000000", "--workers", "1"],
        ["verify", "--lemma", "--n", "2..4000000", "--workers", "1"],
        ["scan", "--popoviciu", "--fn", "sqrt", "--op", "rn", "--n", "2..1000000000",
         "--points", "1001"],
    ], ids=["sikkema", "verify", "popoviciu"])
    def test_huge_n_range_is_rejected_before_it_is_built(self, peak_rss, args):
        """The n <= 200 cap of every sweep is checked on the range's bounds:
        listing 2..4000000 first took 374 MiB in the Sikkema scan and 520
        MiB in the verifier, and the Popoviciu scan computed for 15 s before
        it overflowed."""
        res = run_main(args)
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "error" and "capped at n = 200" in err["message"]
        exit_code, peak_mib = peak_rss(
            "import sys; from polya_bernstein.cli import main; main(sys.argv[1:])", *args)
        assert exit_code == 2
        assert peak_mib < 100

    @pytest.mark.parametrize("args", [
        ["eval", "--op", "rn", "--fn", "sqrt", "--n", "200", "--grid-points", "1000000",
         "--out", "{tmp}"],
        ["eval", "--op", "bernstein", "--fn", "sqrt", "--n", "200", "--grid-points", "1000000",
         "--out", "{tmp}"],
        ["compare", "--fn", "sqrt", "--n", "200", "--points", "1000000", "--out", "{tmp}"],
        ["scan", "--popoviciu", "--fn", "sqrt", "--n", "2..200", "--points", "1000000"],
        ["verify", "--lemma", "--n", "2..3", "--points", "2001", "--c-samples", "1000000"],
        ["verify", "--conjecture", "--n", "2..3", "--points", "1000000", "--c-samples", "21"],
        ["eval", "--op", "rn", "--fn", "sqrt", "--n", "200", "--grid-points", "1000000000000",
         "--out", "{tmp}"],
        ["compare", "--fn", "sqrt", "--n", "200", "--points", "1000000000000", "--out", "{tmp}"],
        ["scan", "--sikkema", "--n", "2", "--points", "1000000000000", "--workers", "1"],
    ], ids=["eval-rn", "eval-bernstein", "compare", "popoviciu", "verify-c-samples",
            "verify-points", "eval-grid-1e12", "compare-grid-1e12", "sikkema-grid-1e12"])
    def test_request_over_the_cell_cap_is_rejected_before_it_is_built(
            self, tmp_path, peak_rss, args):
        """(n+1) x points operator cells, points x c-samples verifier cells,
        or the base points of a Sikkema scan, over reports.CELLS_MAX per n
        exit 2 before the arrays are built (here 200 x 10^6 cells, tens of
        GiB unchecked).  The 10^12-point grids show the order: built before
        the check, their grid alone fails to allocate 7.28 TiB."""
        out = tmp_path / "out.csv"
        args = [a.format(tmp=out) for a in args]
        res = run_main(args)
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "error" and f"capped at {reports.CELLS_MAX}" in err["message"]
        exit_code, peak_mib = peak_rss(
            "import sys; from polya_bernstein.cli import main; main(sys.argv[1:])", *args)
        assert exit_code == 2
        assert peak_mib < 100
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["eval", "--op", "rn", "--fn", "sqrt", "--n", "199", "--grid-points", "20000",
         "--out", "{tmp}"],
        ["verify", "--lemma", "--kozniewska", "--n", "2", "--points", "2000",
         "--c-samples", "2000", "--workers", "1", "--out", "{tmp}"],
    ], ids=["eval-rn", "verify"])
    def test_request_at_the_cell_cap_runs_in_bounded_memory(self, tmp_path, peak_rss, args):
        assert 200 * 20000 == 2000 * 2000 == reports.CELLS_MAX
        args = [a.format(tmp=tmp_path / "out") for a in args]
        exit_code, peak_mib = peak_rss(
            "import os, sys; sys.stdout = open(os.devnull, 'w'); "
            "from polya_bernstein.cli import main; main(sys.argv[1:])", *args)
        assert exit_code == 0
        assert peak_mib < 150

    @pytest.mark.parametrize("op", ["rn", "bernstein"])
    def test_n_past_the_float_binomial_row_is_rejected_before_it_is_built(self, peak_rss, op):
        """The float binomial row holds n <= 1029.  Building the exact
        integer row first took 1 s and 198 MiB at n = 60000 before the
        float conversion failed, growing about as n^2."""
        args = ["eval", "--op", op, "--fn", "sin-pi", "--n", "60000", "--x", "0.3"]
        res = run_main(args)
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["kind"] == "error" and "capped at n = 1029" in err["message"]
        exit_code, peak_mib = peak_rss(
            "import sys; from polya_bernstein.cli import main; main(sys.argv[1:])", *args)
        assert exit_code == 2
        assert peak_mib < 100
        res = run_main(["eval", "--op", op, "--fn", "sin-pi", "--n", "1029", "--x", "0.3"])
        assert res.returncode == 0 and 0.0 < float(res.stdout) < 1.0

    def test_verifier_sweep_memory_is_bounded(self, tmp_path, peak_rss):
        """The fused lemma and Kozniewska sweep holds column blocks, not
        (n+1) x points x c-samples arrays (674 MiB unblocked here)."""
        exit_code, peak_mib = peak_rss(
            "import sys; from polya_bernstein.cli import main; main(sys.argv[1:])",
            "verify", "--lemma", "--kozniewska", "--n", "120", "--points", "8001",
            "--c-samples", "21", "--workers", "1", "--out", str(tmp_path / "v.json"))
        assert exit_code == 0
        assert peak_mib < 150


def readme_cli_examples():
    """The pbop lines of the sh block under the README's "CLI examples"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("pbop ")]


def test_readme_cli_examples_run(tmp_path):
    examples = readme_cli_examples()
    assert len(examples) >= 10
    src = str(Path(polya_bernstein.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for line in examples:
        args = [sys.executable, "-m", "polya_bernstein.cli", *shlex.split(line)[1:]]
        res = subprocess.run(args, capture_output=True, text=True, cwd=tmp_path, env=env)
        assert res.returncode == 0, (line, res.stderr)
