"""Command-line front end: evaluate operators, run sup scans, verify the
inequality machinery, and compare error profiles.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error.  Failure paths emit a machine-parsable JSON error object on stderr.
Identical invocations produce byte-identical JSON regardless of --workers.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import analysis, operators
from .reports import GridSpec, dump_json, write_curves_csv

DEFAULT_POINTS = 10001
DEFAULT_C_SAMPLES = 21


def _parse_range(text: str) -> range:
    """Inclusive range 'lo..hi', or a single integer.  A range, not a list,
    so a scan can check its bounds before any n is built."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise click.UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get("PB_WORKERS")
        workers = int(env) if env else (os.cpu_count() or 1)
    if workers < 1:
        raise click.UsageError(f"--workers must be >= 1, got {workers}")
    return workers


def _function(fn: str | None, fn_csv: str | None) -> operators.FunctionSpec:
    if (fn is None) == (fn_csv is None):
        raise click.UsageError("provide exactly one of --fn or --fn-csv")
    if fn_csv is not None:
        return operators.function_from_csv(fn_csv)
    return operators.builtin_function(fn)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


@click.group()
def cli() -> None:
    """Urn-based Bernstein-type operators and their error-bound checks."""


@cli.command("eval")
@click.option("--op", "op", type=click.Choice(["bernstein", "rn", "polya"]), required=True)
@click.option("--fn", "fn", default=None, help="built-in function name")
@click.option("--fn-csv", "fn_csv", default=None, type=click.Path(exists=True),
              help="sampled-table function, CSV with header x,fx")
@click.option("--n", "n", type=int, required=True)
@click.option("--x", "x", type=float, default=None, help="single evaluation point")
@click.option("--c", "c", type=float, default=None, help="constant profile c (op=polya)")
@click.option("--grid-points", type=click.IntRange(min=2), default=None,
              help="evaluate on a grid instead of --x")
@click.option("--out", "out", type=click.Path(), default=None, help="CSV output for grid mode")
def cmd_eval(op, fn, fn_csv, n, x, c, grid_points, out):
    """Evaluate an operator at a point, or over a grid (CSV x,fx,opx,error)."""
    f = _function(fn, fn_csv)
    if c is not None and op != "polya":
        raise click.UsageError("--c applies to --op polya only")
    if op == "polya":
        profile = operators.CProfile("constant", c) if c is not None else operators.CProfile("rn")
    elif op == "rn":
        profile = operators.CProfile("rn")
    else:
        profile = None
    if (x is None) == (grid_points is None):
        raise click.UsageError("provide exactly one of --x or --grid-points")
    if grid_points is not None and out is None:
        raise click.UsageError("grid mode requires --out")
    if x is not None:
        if op == "bernstein":
            value = operators.bernstein_eval(f, n, x)
        else:
            value = operators.polya_operator_eval(f, n, x, profile)
        click.echo(repr(value))
        return
    xs = np.linspace(0.0, 1.0, grid_points)
    if op == "bernstein":
        curve = operators.bernstein_curve(f, n, xs)
    else:
        curve = operators.operator_curve(f, n, xs, profile)
    fx = np.asarray(f(xs))
    rows = zip(xs.tolist(), fx.tolist(), curve.tolist(), (curve - fx).tolist())
    write_curves_csv(out, rows, header=("x", "fx", "opx", "error"))
    click.echo(f"wrote {grid_points} rows to {out}")


@cli.command("scan")
@click.option("--sikkema", "mode", flag_value="sikkema")
@click.option("--popoviciu", "mode", flag_value="popoviciu")
@click.option("--n", "n_range", required=True, help="n range lo..hi")
@click.option("--c-mode", type=click.Choice(["zero", "rn"]), default=None,
              help="replacement profile of --sikkema scans  [default: zero]")
@click.option("--bound", type=click.Choice(analysis.BOUNDS), default=None,
              help="quantity scanned by --sikkema: Sikkema's bracket sum or the "
                   "F_n^c majorant (default: bracket for --c-mode zero, majorant for rn)")
@click.option("--fn", "fn", default=None)
@click.option("--fn-csv", "fn_csv", default=None, type=click.Path(exists=True))
@click.option("--op", "op", type=click.Choice(["bernstein", "rn"]), default=None,
              help="operator of --popoviciu scans  [default: rn]")
@click.option("--points", type=int, default=DEFAULT_POINTS, show_default=True)
@click.option("--out", "out", type=click.Path(), default=None, help="JSON report path (default stdout)")
@click.option("--curves-csv", type=click.Path(), default=None, help="per-n curve export (n,x,value)")
@click.option("--workers", type=int, default=None, help="parallel workers (env PB_WORKERS)")
def cmd_scan(mode, n_range, c_mode, bound, fn, fn_csv, op, points, out, curves_csv, workers):
    """Sup scans: --sikkema for the Sikkema-style bound (--bound), --popoviciu
    for operator error/modulus ratios of a test function."""
    if mode is None:
        raise click.UsageError("select one of --sikkema or --popoviciu")
    for option, value, owner in (
        ("--bound", bound, "sikkema"),
        ("--c-mode", c_mode, "sikkema"),
        ("--op", op, "popoviciu"),
        ("--curves-csv", curves_csv, "sikkema"),
        ("--fn", fn, "popoviciu"),
        ("--fn-csv", fn_csv, "popoviciu"),
    ):
        if value is not None and mode != owner:
            raise click.UsageError(f"{option} applies to --{owner} scans only")
    ns = _parse_range(n_range)
    workers = _resolve_workers(workers)
    grid = GridSpec(points=points)
    if mode == "sikkema":
        c_mode = c_mode or "zero"
        report = analysis.scan_sup(ns, c_mode=c_mode, grid=grid, workers=workers, bound=bound)
        if curves_csv is not None:
            def rows():
                for n in ns:
                    xs, vals = analysis.scan_curve(n, c_mode, grid, report.meta["bound"])
                    for xi, vi in zip(xs.tolist(), vals.tolist()):
                        yield (n, xi, vi)
            write_curves_csv(curves_csv, rows())
    else:
        f = _function(fn, fn_csv)
        report = operators.popoviciu_scan(f, ns, grid, operator=op or "rn")
    _emit(dump_json(report), out)


@cli.command("verify")
@click.option("--lemma", is_flag=True, help="rising-factorial inequality sweep")
@click.option("--kozniewska", is_flag=True, help="truncated-moment identity sweep")
@click.option("--n6", is_flag=True, help="n=6 case bounds")
@click.option("--conjecture", is_flag=True, help="monotonicity-in-c exploration")
@click.option("--n", "n_range", default="2..40", show_default=True)
@click.option("--points", type=int, default=2001, show_default=True)
@click.option("--c-samples", type=click.IntRange(min=1), default=DEFAULT_C_SAMPLES,
              show_default=True)
@click.option("--out", "out", type=click.Path(), default=None)
@click.option("--workers", type=int, default=None)
def cmd_verify(lemma, kozniewska, n6, conjecture, n_range, points, c_samples, out, workers):
    """Run selected verifications; exit 1 if any non-exploratory check fails."""
    if not (lemma or kozniewska or n6 or conjecture):
        raise click.UsageError("select at least one of --lemma/--kozniewska/--n6/--conjecture")
    ns = _parse_range(n_range)
    workers = _resolve_workers(workers)
    grid = GridSpec(points=points)
    checks = [name for name, on in
              (("lemma", lemma), ("kozniewska", kozniewska), ("conjecture", conjecture)) if on]
    reports = analysis.verify_sweep(ns, checks, grid, c_samples, workers) if checks else []
    if n6:  # after the lemma and Kozniewska reports, before the conjecture's
        reports.insert(len(reports) - conjecture, analysis.n6_case_check())
    payload = {
        "schema": 1,
        "kind": "verification-suite",
        "reports": [r.to_json_dict() for r in reports],
    }
    _emit(dump_json(payload), out)
    # exploratory reports (finding set) never fail the run
    if any(rep.finding is None and not rep.passed for rep in reports):
        sys.exit(1)


@cli.command("compare")
@click.option("--fn", "fn", default=None)
@click.option("--fn-csv", "fn_csv", default=None, type=click.Path(exists=True))
@click.option("--n", "n", type=int, required=True)
@click.option("--points", type=click.IntRange(min=2), default=DEFAULT_POINTS, show_default=True)
@click.option("--out", "out", type=click.Path(), required=True)
def cmd_compare(fn, fn_csv, n, points, out):
    """Side-by-side error profiles of B_n and R_n (CSV x,err_bernstein,err_rn)."""
    f = _function(fn, fn_csv)
    if n <= 1:
        raise click.UsageError(f"compare requires n > 1, got {n}")
    xs = np.linspace(0.0, 1.0, points)
    fx = np.asarray(f(xs))
    err_b = operators.bernstein_curve(f, n, xs) - fx
    err_r = operators.operator_curve(f, n, xs, operators.CProfile("rn")) - fx
    write_curves_csv(
        out,
        zip(xs.tolist(), err_b.tolist(), err_r.tolist()),
        header=("x", "err_bernstein", "err_rn"),
    )
    click.echo(f"wrote {points} rows to {out}")


def _error_object(kind: str, message: str) -> str:
    return json.dumps({"schema": 1, "kind": "error", "error": kind, "message": message},
                      sort_keys=True)


def main(argv: list[str] | None = None) -> None:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(_error_object("usage", exc.format_message()), err=True)
        sys.exit(2)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(2)
    except Exception as exc:  # bad input that no narrower check caught
        click.echo(_error_object(type(exc).__name__, str(exc)), err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
