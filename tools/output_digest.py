"""Digest of the ``pbop`` outputs, for a byte-for-byte comparison of two checkouts.

    PYTHONPATH=<checkout>/src python3 tools/output_digest.py > <checkout>.digest

Runs a fixed list of commands against the library on ``PYTHONPATH``, each in
a fresh process, and prints one line per item: its name, its exit code, and
the sha256 of its stdout, of its stderr and of every file it wrote (as
``path=sha256``).  Run it once per checkout, from the same copy of this
script, and ``diff`` the two outputs.  Timings are not part of any output, so
equal lines mean byte-identical results.  A few items print their stdout
in place of its sha256, so a changed number can be quoted from the diff.

The commands are taken from ``perfbench/`` and ``tests/`` next to this script:

* ``CRITERIA_CMDS`` of ``tests/test_acceptance.py``, at ``--workers`` 1 and 2;
* the ``pbop`` lines of the README's CLI examples;
* every command of ``perfbench/workloads.py`` for seeds 1 and 101, at
  ``--workers`` 1 and 2 where it takes them;
* the point queries of ``workloads.make_queries`` for seeds 101-103, one
  ``repr`` of the result (or the error) per query;
* ``scan --sikkema --n 2..200 --points 2001`` with ``--curves-csv``, in both
  c-modes and both bounds, at ``--workers`` 1 and 2;
* ``verify --lemma --kozniewska --conjecture --n6 --n 2..12`` at ``--workers``
  1 and 2;
* ``verify --lemma --kozniewska --conjecture --n 195..200 --points 2001
  --c-samples 5`` at ``--workers`` 1 and 2: n next to ``N_MAX``, where the
  lemma's right side underflows and its log-ratio branch decides;
* ``eval --op polya --c 0`` at one point and on a grid, and ``eval --op
  bernstein`` at one point: the c = 0 route of the operator;
* in process, printed in the digest line: the ``repr`` (or the error) of
  ``bernstein_eval``, and of ``polya_operator_eval`` under
  ``CProfile("constant", 0.0)`` and ``CProfile("rn")``, of the sine at
  n = 1, 2, 1029 and 1030 and x = 0, 0.3 and 1: the one-column route's
  edges, the float binomial row's cap and the rn profile's n = 1 refusal;
* refusals: ``eval --op polya --c 1e300 --n 1000``, whose pmf products
  overflow; ``eval --op rn``, ``compare`` and a one-point ``eval --op
  bernstein`` on a table with values of +-1e308; and, in process, the
  ``repr`` (or the error) of ``pmf`` a little past the admissibility
  boundary and of ``factorial_ratio`` with a negative numerator factor;
* ``eval --op polya`` with a negative constant c at one admitted point;
* in process, the ``repr`` (or the error) of the one-column pmf where its
  sum drifts (``pmf`` at n = 500, c = 1e300) and where its products
  overflow (the brute truncated moment at n = 1000, c = 1e300), of ``pmf``
  where only the normalised c/(a+b) overflows, and of ``log_rising`` with
  a factor far below 0;
* ``verify --lemma --n 2..3 --points 201`` under ``PB_WORKERS=abc`` and
  ``PB_WORKERS=0``: ``--workers`` is the one worker setting, so both exit 0
  with the report of a run without the variable (a checkout that still
  read it exits 2 there);
* in process, the values of ``f_n_c_curve`` on a (3, 7) grid, under the rn
  profile and at c = 0, and at a 0-d point, with their shapes;
* in process, printed in the digest line itself rather than hashed: the
  ``repr`` of the Kozniewska report's ``worst_margin`` and witness at n =
  195..200 (2001 points, 5 c-samples), of the closed truncated moment
  at n = 200, and of its refusal at n = 1031, past the float binomial row;
* in process, also printed in the digest line: the ``repr`` (or the error)
  of ``modulus_of_continuity`` of the sawtooth on the array of every
  ``n ** -0.5``, n = 2..200, the one call a Popoviciu scan makes;
* ``scan --popoviciu --fn-csv const.csv --n 2..5`` on a constant two-knot
  table, refused for its 0/0 ratio;
* in process, printed in the digest line: the ``repr`` of the lemma report
  at n = 2..8 (201 points, 5 c-samples) with ``STRICT_C_CUTOFF = 0.5``,
  whose strict witness is not empty;
* ``verify --conjecture --n 2 --points 3``, a conjecture sweep that checks
  no cell;
* refusals of 10^12-point grids by ``eval --grid-points``, ``compare`` and
  ``scan --sikkema`` and ``--popoviciu``, and of ``--n`` ranges that are
  not integers (``a..b``, ``2..3.5``).

Every item runs in a fresh directory under a temporary root, removed at the
end, and every path it is given is relative, so the outputs do not depend on
where they ran.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import workloads  # noqa: E402
from test_acceptance import CRITERIA_CMDS  # noqa: E402
from test_cli import readme_cli_examples  # noqa: E402

PBOP = [sys.executable, "-m", "polya_bernstein.cli"]
WORKERS = ("1", "2")
WORKLOAD_SEEDS = (1, 101)
QUERY_SEEDS = (101, 102, 103)
# Prints one line per point query of the seed in argv[1], with perfbench/ at
# argv[2]: the repr of its result, or the type and message of its error.
QUERIES = """
import sys
sys.path.insert(0, sys.argv[2])
import polya_bernstein, child, workloads
for q in workloads.make_queries(int(sys.argv[1])):
    try:
        print(repr(float(child._call(q, polya_bernstein)())))
    except Exception as exc:
        print(type(exc).__name__, exc)
"""
CURVES_SCAN = ["scan", "--sikkema", "--n", "2..200", "--points", "2001"]
EVALS = (
    ["eval", "--op", "polya", "--c", "0", "--fn", "sin-pi", "--n", "57", "--x", "0.3"],
    ["eval", "--op", "polya", "--c", "0", "--fn", "sqrt", "--n", "200", "--grid-points", "1001",
     "--out", "polya-c0.csv"],
    ["eval", "--op", "bernstein", "--fn", "sin-pi", "--n", "57", "--x", "0.3"],
)
# Refusal paths: a bad input must end in one JSON error line and exit 2.
HUGE_C = ["eval", "--op", "polya", "--fn", "sin-pi", "--x", "0.3", "--n", "1000", "--c", "1e300"]
BIG_TABLE = "x,fx\n0,1e308\n0.5,-1e308\n1,1e308\n"
BIG_TABLE_CMDS = (
    ["eval", "--op", "rn", "--fn-csv", "big.csv", "--n", "10", "--x", "0.3"],
    ["compare", "--fn-csv", "big.csv", "--n", "5", "--points", "11", "--out", "compare.csv"],
    ["eval", "--op", "bernstein", "--fn-csv", "big.csv", "--n", "5", "--x", "0.3"],
)
# Prints the repr, or the error, of each expression.
PAST_THE_BOUNDARY = """
from polya_bernstein.numeric_core import factorial_ratio
from polya_bernstein.polya import PolyaParams, pmf
for call in (lambda: pmf(PolyaParams(2, 0.5, 0.5, -0.5 - 2e-15)),
             lambda: factorial_ratio(0.5, 0, 3, -0.4)):
    try:
        print(repr(call()))
    except Exception as exc:
        print(type(exc).__name__, exc)
"""
NEGATIVE_C = ["eval", "--op", "polya", "--fn", "sqrt", "--c", "-0.01", "--x", "0.5", "--n", "3"]
# Prints the repr, or the error, of the expression in argv[1].
ONE_COLUMN = """
import sys
from polya_bernstein.polya import PolyaParams, log_rising, pmf, truncated_first_moment
try:
    print(repr(eval(sys.argv[1])))
except Exception as exc:
    print(type(exc).__name__, exc)
"""
ONE_COLUMN_CALLS = {
    "pmf-drift": "pmf(PolyaParams(500, 0.3, 0.7, 1e300))",
    "brute-overflow": "truncated_first_moment(PolyaParams(1000, 0.3, 0.7, 1e300), 3, 'brute')",
    "pmf-normalised-c-overflows": "pmf(PolyaParams(3, 1e-300, 1e-300, 1e10))",
    "log-rising-past-the-boundary": "log_rising(0.5, 3, -0.4)",
}
# ONE_COLUMN expressions whose output the digest line shows.
SHOWN_CALLS = {
    "closed-moment": "truncated_first_moment(PolyaParams(200, 0.7, 0.3, -0.001), 120)",
    "closed-moment-past-the-row": "truncated_first_moment(PolyaParams(1031, 0.9, 0.1, 0.0), 120)",
}
# Prints the repr of the Kozniewska report's worst margin and witness next
# to N_MAX, where the reflection decides it.
KOZNIEWSKA_TOP = """
from polya_bernstein.analysis import verify_sweep
from polya_bernstein.reports import GridSpec
(rep,) = verify_sweep(range(195, 201), ["kozniewska"], GridSpec(points=2001), 5)
print(repr(rep.worst_margin), repr(rep.witness))
"""
# Prints the repr, or the error, of the sawtooth's modulus at every n ** -0.5
# of a scan, each value in its shortest round-trip digits.
MODULUS_ARRAY = """
import numpy as np
from polya_bernstein.operators import builtin_function, modulus_of_continuity
np.set_printoptions(floatmode="unique", linewidth=100_000)
try:
    print(repr(modulus_of_continuity(builtin_function("sawtooth"), [n ** -0.5 for n in range(2, 201)])))
except Exception as exc:
    print(type(exc).__name__, exc)
"""
# Prints the repr, or the error, of the point query in argv[1] at each n and x
# of the one-column route's edges.
POINT_EDGES = """
import sys
from polya_bernstein.operators import CProfile, bernstein_eval, builtin_function, polya_operator_eval
f = builtin_function("sin-pi")
for n in (1, 2, 1029, 1030):
    for x in (0.0, 0.3, 1.0):
        try:
            print(n, x, repr(eval(sys.argv[1])))
        except Exception as exc:
            print(n, x, type(exc).__name__, exc)
"""
POINT_EDGE_CALLS = {
    "bernstein": "bernstein_eval(f, n, x)",
    "constant-zero": "polya_operator_eval(f, n, x, CProfile('constant', 0.0))",
    "rn": "polya_operator_eval(f, n, x, CProfile('rn'))",
}
CONST_TABLE_SCAN = ["scan", "--popoviciu", "--fn-csv", "const.csv", "--n", "2..5"]
PB_WORKERS_VERIFY = ["verify", "--lemma", "--n", "2..3", "--points", "201"]
# Prints the shape and the exact values of f_n_c_curve on each input.
FNC_SHAPES = """
import numpy as np
from polya_bernstein.analysis import f_n_c_curve
from polya_bernstein.operators import CProfile
grid = np.linspace(0.0, 1.0, 21).reshape(3, 7)
for xs, cs in ((grid, CProfile("rn").c_at(grid, 12)), (grid, 0.0), (np.asarray(0.8), -0.0)):
    out = f_n_c_curve(12, xs, cs)
    print(out.shape, repr(out.tolist()))
"""
# Prints the repr of the lemma report with every c strict, so that the c = 0
# cells fail the strict form and its strict witness is not empty.
STRICT_WITNESS = """
from polya_bernstein import analysis
from polya_bernstein.reports import GridSpec
analysis.STRICT_C_CUTOFF = 0.5
(rep,) = analysis.verify_sweep(range(2, 9), ["lemma"], GridSpec(points=201), 5)
print(repr(rep))
"""
EMPTY_CONJECTURE = ["verify", "--conjecture", "--n", "2", "--points", "3"]
HUGE = "1000000000000"
REFUSALS = {
    "eval-grid": ["eval", "--op", "rn", "--fn", "sqrt", "--n", "200", "--grid-points", HUGE,
                  "--out", "eval.csv"],
    "compare-grid": ["compare", "--fn", "sqrt", "--n", "200", "--points", HUGE,
                     "--out", "compare.csv"],
    "sikkema-grid": ["scan", "--sikkema", "--n", "2", "--points", HUGE, "--workers", "1"],
    "popoviciu-grid": ["scan", "--popoviciu", "--fn", "sqrt", "--n", "2", "--points", HUGE],
    "n-range-letters": ["scan", "--sikkema", "--n", "a..b"],
    "n-range-float": ["verify", "--lemma", "--n", "2..3.5"],
}
VERIFY = ["verify", "--lemma", "--kozniewska", "--conjecture", "--n6", "--n", "2..12",
          "--points", "501", "--c-samples", "5"]
VERIFY_TOP = ["verify", "--lemma", "--kozniewska", "--conjecture", "--n", "195..200",
              "--points", "2001", "--c-samples", "5"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(where: Path) -> dict[str, str]:
    return {str(p): _sha(p.read_bytes()) for p in sorted(where.rglob("*")) if p.is_file()}


def run(name: str, argv: list[str], cwd: Path, watch: Path | None = None,
        env: dict[str, str] | None = None, show: bool = False) -> None:
    """Run argv in cwd, in env (default this process's), and print its digest
    line, with its stdout itself in place of its sha256 if show; the files
    written are those new or changed under watch (default cwd), named
    relative to cwd."""
    watch = watch or cwd
    before = _files(watch)
    res = subprocess.run(argv, cwd=cwd, capture_output=True, env=env)
    out = res.stdout.decode().strip().replace("\n", " | ") if show else _sha(res.stdout)
    written = [f"{os.path.relpath(p, cwd)}={h}" for p, h in _files(watch).items()
               if before.get(p) != h]
    print(name, res.returncode, out, _sha(res.stderr), *written, flush=True)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        digest(Path(tmp).resolve())


def digest(root: Path) -> None:
    os.chdir(root)  # the workload commands name their files relative to root
    count = 0

    def fresh() -> Path:
        nonlocal count
        count += 1
        path = root / f"{count:03d}"
        path.mkdir()
        return path

    for i, cmd in enumerate(CRITERIA_CMDS):
        for w in WORKERS:
            run(f"criteria[{i}]-w{w}", [*PBOP, *cmd, "--workers", w], fresh())
    for i, line in enumerate(readme_cli_examples()):
        run(f"readme[{i}]", [*PBOP, *shlex.split(line)[1:]], fresh())
    for seed in WORKLOAD_SEEDS:
        for workload, (make_ops, _) in workloads.WORKLOADS.items():
            base = fresh()
            for op in make_ops(Path(base.name), seed):
                for w in WORKERS if op.takes_workers else ("",):
                    args = [*op.args, "--workers", w] if w else op.args
                    run(f"{workload}-{seed}:{op.key}" + (f"-w{w}" if w else ""),
                        [*PBOP, *args], root, base)
    for seed in QUERY_SEEDS:
        argv = [sys.executable, "-c", QUERIES, str(seed), str(ROOT / "perfbench")]
        run(f"queries-{seed}", argv, fresh())
    for c_mode in ("zero", "rn"):
        for bound in ("bracket", "majorant"):
            for w in WORKERS:
                run(f"curves-csv-{c_mode}-{bound}-w{w}",
                    [*PBOP, *CURVES_SCAN, "--c-mode", c_mode, "--bound", bound, "--workers", w,
                     "--out", "scan.json", "--curves-csv", "curves.csv"], fresh())
    for name, cmd in (("verify", VERIFY), ("verify-top", VERIFY_TOP)):
        for w in WORKERS:
            run(f"{name}-w{w}", [*PBOP, *cmd, "--workers", w], fresh())
    for i, cmd in enumerate(EVALS):
        run(f"eval[{i}]", [*PBOP, *cmd], fresh())
    for name, call in POINT_EDGE_CALLS.items():
        run(f"point-edges-{name}", [sys.executable, "-c", POINT_EDGES, call], fresh(), show=True)
    run("refuse-huge-c", [*PBOP, *HUGE_C], fresh())
    for i, cmd in enumerate(BIG_TABLE_CMDS):
        where = fresh()
        (where / "big.csv").write_text(BIG_TABLE)
        run(f"refuse-big-table[{i}]", [*PBOP, *cmd], where)
    run("past-the-boundary", [sys.executable, "-c", PAST_THE_BOUNDARY], fresh())
    run("negative-constant", [*PBOP, *NEGATIVE_C], fresh())
    for name, call in ONE_COLUMN_CALLS.items():
        run(name, [sys.executable, "-c", ONE_COLUMN, call], fresh())
    for value in ("abc", "0"):
        run(f"pb-workers-{value}", [*PBOP, *PB_WORKERS_VERIFY], fresh(),
            env={**os.environ, "PB_WORKERS": value})
    run("f-n-c-curve-shapes", [sys.executable, "-c", FNC_SHAPES], fresh())
    run("kozniewska-top", [sys.executable, "-c", KOZNIEWSKA_TOP], fresh(), show=True)
    for name, call in SHOWN_CALLS.items():
        run(name, [sys.executable, "-c", ONE_COLUMN, call], fresh(), show=True)
    run("modulus-array", [sys.executable, "-c", MODULUS_ARRAY], fresh(), show=True)
    where = fresh()
    (where / "const.csv").write_text("x,fx\n0,1\n1,1\n")
    run("refuse-constant-table", [*PBOP, *CONST_TABLE_SCAN], where)
    run("lemma-strict-witness", [sys.executable, "-c", STRICT_WITNESS], fresh(), show=True)
    run("refuse-empty-conjecture", [*PBOP, *EMPTY_CONJECTURE], fresh())
    for name, cmd in REFUSALS.items():
        run(f"refuse-{name}", [*PBOP, *cmd], fresh())


if __name__ == "__main__":
    main()
