"""Command-line front end: evaluate operators, run sup scans, verify the
inequality machinery, and compare error profiles.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error.  Failure paths emit a machine-parsable JSON error object on stderr.
Identical invocations produce byte-identical JSON regardless of --workers.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import analysis, operators
from .reports import SCHEMA_VERSION, GridSpec, dump_json, write_curves_csv

DEFAULT_POINTS = 10001
DEFAULT_C_SAMPLES = 21


def _parse_range(text: str) -> range:
    """Inclusive range 'lo..hi', or a single integer.  A range, not a list,
    so a scan can check its bounds before any n is built."""
    try:
        lo, hi = map(int, text.split("..", 1) if ".." in text else (text, text))
    except ValueError:
        raise click.UsageError(f"n range {text!r} is not lo..hi or one integer") from None
    if hi < lo:
        raise click.UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


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
@click.option("--c", "c", type=float, default=None, help="constant profile c (op=polya, required)")
@click.option("--grid-points", type=click.IntRange(min=2), default=None,
              help="evaluate on a grid instead of --x")
@click.option("--out", "out", type=click.Path(), default=None, help="CSV output for grid mode")
def cmd_eval(op, fn, fn_csv, n, x, c, grid_points, out):
    """Evaluate an operator at a point, or over a grid (CSV x,fx,opx,error)."""
    f = _function(fn, fn_csv)
    if c is not None and op != "polya":
        raise click.UsageError("--c applies to --op polya only")
    if c is None and op == "polya":
        raise click.UsageError("--op polya requires --c")
    kind = {"bernstein": "zero", "rn": "rn", "polya": "constant"}[op]
    profile = operators.CProfile(kind, 0.0 if c is None else c)
    if (x is None) == (grid_points is None):
        raise click.UsageError("provide exactly one of --x or --grid-points")
    if grid_points is not None and out is None:
        raise click.UsageError("grid mode requires --out")
    if x is not None:
        click.echo(repr(operators.polya_operator_eval(f, n, x, profile)))
        return
    operators._check_size(n, grid_points)  # before the grid is built
    xs = np.linspace(0.0, 1.0, grid_points)
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
@click.option("--workers", type=click.IntRange(min=1), default=analysis._cpu_count,
              help="parallel workers of --sikkema scans (default: one per CPU); "
                   "--popoviciu runs in-process")
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
    grid = GridSpec(points=points)
    if mode == "sikkema":
        report = analysis.scan_sup(ns, c_mode or "zero", grid, workers, bound, curves_csv)
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
@click.option("--workers", type=click.IntRange(min=1), default=analysis._cpu_count,
              help="parallel workers over n (default: one per CPU)")
def cmd_verify(lemma, kozniewska, n6, conjecture, n_range, points, c_samples, out, workers):
    """Run selected verifications; exit 1 if any non-exploratory check fails."""
    if not (lemma or kozniewska or n6 or conjecture):
        raise click.UsageError("select at least one of --lemma/--kozniewska/--n6/--conjecture")
    ns = _parse_range(n_range)
    grid = GridSpec(points=points)
    checks = [name for name, on in
              (("lemma", lemma), ("kozniewska", kozniewska), ("conjecture", conjecture)) if on]
    reports = analysis.verify_sweep(ns, checks, grid, c_samples, workers) if checks else []
    if n6:  # after the lemma and Kozniewska reports, before the conjecture's
        reports.insert(len(reports) - conjecture, analysis.n6_case_check())
    payload = {
        "schema": SCHEMA_VERSION,
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
    operators._check_size(n, points)  # before the grid is built
    xs = np.linspace(0.0, 1.0, points)
    fx = np.asarray(f(xs))
    err_b, err_r = (operators.operator_curve(f, n, xs, operators.CProfile(kind)) - fx
                    for kind in ("zero", "rn"))
    write_curves_csv(
        out,
        zip(xs.tolist(), err_b.tolist(), err_r.tolist()),
        header=("x", "err_bernstein", "err_rn"),
    )
    click.echo(f"wrote {points} rows to {out}")


def _error_object(kind: str, message: str) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, "kind": "error", "error": kind, "message": message},
                      sort_keys=True)


def main(argv: list[str] | None = None) -> None:
    try:
        # An overflow or NaN that no check caught is an error, not a number.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
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
