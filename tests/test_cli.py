import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from polya_bernstein import analysis
from polya_bernstein.cli import cli, main


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

    def test_bad_workers(self):
        res = run_main(["scan", "--sikkema", "--n", "2..3", "--workers", "0"])
        assert res.returncode == 2

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

    def test_zero_c_samples_is_usage_error(self):
        res = run_main(["verify", "--lemma", "--n", "2..3", "--c-samples", "0"])
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"] == "usage"
        assert "--c-samples" in err["message"]

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


# Runs argv[1:] and prints its exit code and peak RSS (KiB on Linux).  The
# command starts from this small process rather than from pytest, because
# Linux carries the forking process's RSS high-water mark into the child's
# ru_maxrss.
PEAK_RSS = (
    "import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
    "_, status, usage = os.wait4(p.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


class TestResources:
    def test_cli_import_leaves_scipy_unloaded(self):
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, polya_bernstein.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert res.stdout.strip() == "False"

    def test_bracket_scan_memory_is_bounded(self, tmp_path):
        """The n = 200 bracket scan holds column blocks, not the whole
        (n+1) x M pmf (about 300 MiB unblocked), and blocking changes no
        output bit."""
        args = ["scan", "--sikkema", "--n", "200", "--points", "10001", "--workers", "1"]

        def run(code, out):
            cmd = [sys.executable, "-c", PEAK_RSS, sys.executable, "-c", code, *args,
                   "--out", str(out)]
            res = subprocess.run(cmd, capture_output=True, text=True, check=True)
            exit_code, peak_kib = map(int, res.stdout.split())
            assert exit_code == 0
            return peak_kib / 1024

        blocked = tmp_path / "blocked.json"
        whole = tmp_path / "whole.json"
        peak_mib = run("import sys; from polya_bernstein.cli import main; main(sys.argv[1:])",
                       blocked)
        run("import sys; from polya_bernstein import analysis; "
            "analysis.BLOCK_BYTES = 1 << 62; "
            "from polya_bernstein.cli import main; main(sys.argv[1:])", whole)
        assert peak_mib < 150
        assert blocked.read_bytes() == whole.read_bytes()
