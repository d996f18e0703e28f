"""The benchmark's workloads: their inputs, commands and output checks.

A workload is a list of ``pbop`` commands and, for operator-queries, a list
of point queries, all run one after another by a single client (a closed
loop).  A pass runs every command once, each in a fresh process, then every
query once, one at a time in one process; its time is the sum of the
commands' wall times and the time of the query loop (without the
interpreter's start).  Commands that take ``--workers`` get ``--workers 1``
or ``--workers 2``; no library call takes a worker count, so the queries of
a ``--workers 2`` pass differ only in ``PB_WORKERS=2``, which only the CLI
reads.

Checks compare outputs with ``references.json``, which holds the library's
own outputs recorded at the seed commit (``record.py`` writes it), and with
the independent implementations in ``oracle.py``:

* per-n and global sups agree with the reference within ``REL_TOL``
  (for the Sikkema bound 1 + sqrt(n)(...), the part after the 1);
* the value reported at the argmax equals the oracle's value there within
  ``REL_TOL`` (an argmax is not compared by position: the scanned functions
  are symmetric, so rounding may pick either of two mirrored maxima);
* ``passed`` flags, ``finding`` flags, ``samples_checked`` counts and CSV
  row counts are equal exactly;
* exit codes are 0, or 1 where a verification fails (which the ``passed``
  flags then catch);
* CSV cells and point-query results agree with the oracle within ``ABS_TOL``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

REL_TOL = 1e-9
ABS_TOL = 1e-10
REFERENCES = Path(__file__).with_name("references.json")


@dataclass
class Op:
    """One CLI command; ``check(exit_code, stdout_text)`` returns an error or None."""

    key: str
    args: list[str]
    takes_workers: bool
    check: Callable[[int, str], str | None]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _per_n(report: dict, ref: dict | None, oracle_value: Callable[[int, float], float],
           base: float = 0.0) -> str | None:
    """Checks shared by the Sikkema and Popoviciu scan reports.  Values are
    compared after subtracting ``base``, the part of the scanned function
    that does not depend on the library's arithmetic."""
    rel = lambda a, b: _rel(a - base, b - base)
    per_n = report["per_n"]
    if max(e["sup"] for e in per_n) != report["sup"]:
        return "global sup is not the largest per-n sup"
    if ref is not None:
        if [e["n"] for e in per_n] != [e[0] for e in ref["per_n"]]:
            return "per-n entries differ from the reference"
        for e, (n, sup) in zip(per_n, ref["per_n"]):
            if rel(e["sup"], sup) > REL_TOL:
                return f"n={n}: sup {e['sup']!r} differs from reference {sup!r}"
    want = oracle_value(report["argmax_n"], report["argmax_x"])
    if rel(report["sup"], want) > REL_TOL:
        return f"sup {report['sup']!r} at the argmax, oracle gives {want!r}"
    return None


def _json_check(exit_code: int, text: str, body: Callable[[dict], str | None]) -> str | None:
    if exit_code not in (0, 1):  # 1 reports a failed verification, which the body compares
        return f"exit code {exit_code}"
    try:
        return body(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"


def _csv_check(path: Path, header: list[str], rows: int, cells: Callable[[list[float]], list[float]]):
    """Row count and header equal; a few sampled rows equal the oracle."""
    def check(exit_code: int, text: str) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        if table[0] != header or len(table) - 1 != rows:
            return f"CSV has header {table[0]} and {len(table) - 1} rows, want {header} and {rows}"
        for i in (1, rows // 4, rows // 2, 3 * rows // 4, rows):
            got = [float(v) for v in table[i]]
            want = cells(got)
            if max(abs(g - w) for g, w in zip(got, want)) > ABS_TOL:
                return f"CSV row {i} is {got}, oracle gives {want}"
        return None
    return check


def _load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


# --- sikkema-scan ---------------------------------------------------------

SIKKEMA_ARGS = ["scan", "--sikkema", "--n", "2..200", "--points", "2001", "--c-mode", "rn"]


def sikkema_scan(tmp: Path, seed: int) -> list[Op]:
    ref = _load_references()["sikkema-scan"]
    body = lambda rep: _per_n(rep, ref, lambda n, x: oracle.sikkema(n, x, "rn"), base=1.0)
    return [Op("sikkema", SIKKEMA_ARGS, True, lambda code, text: _json_check(code, text, body))]


# --- verify-sweep ---------------------------------------------------------

VERIFY_OPS = {
    "lemma-kozniewska": ["verify", "--lemma", "--kozniewska", "--n", "2..40",
                         "--points", "2001", "--c-samples", "21"],
    "conjecture": ["verify", "--conjecture", "--n", "2..20"],
}
VERIFY_FIELDS = ("claim_id", "passed", "finding", "samples_checked")


def verify_summary(payload: dict) -> list[dict]:
    return [{k: r.get(k) for k in VERIFY_FIELDS} for r in payload["reports"]]


def verify_sweep(tmp: Path, seed: int) -> list[Op]:
    refs = _load_references()["verify-sweep"]
    ops = []
    for key, args in VERIFY_OPS.items():
        def body(payload, want=refs[key]):
            got = verify_summary(payload)
            return None if got == want else f"reports {got} differ from reference {want}"
        ops.append(Op(key, args, True, lambda code, text, body=body: _json_check(code, text, body)))
    return ops


# --- operator-profile -----------------------------------------------------

PROFILE_N = "2..40"
PROFILE_POINTS = "4001"
EXPORT_N = 40
EXPORT_POINTS = 10001
TABLE_KNOTS = 25
# (function, operator): sin-pi under rn spends its time in polya.pmf_matrix,
# sqrt under bernstein in the modulus of continuity; the seeded table runs
# both operators on input the benchmark draws from the seed.
PROFILE_SCANS = (("sin-pi", "rn"), ("sqrt", "bernstein"), ("table", "rn"), ("table", "bernstein"))


def write_table(path: Path, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A seeded piecewise-linear random walk on [0,1], as CSV x,fx."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, TABLE_KNOTS - 2)), [1.0]])
    fx = np.cumsum(rng.normal(0.0, 1.0, TABLE_KNOTS))
    with open(path, "w", newline="") as fh:
        fh.write("x,fx\n")
        for x, y in zip(xs.tolist(), fx.tolist()):
            fh.write(f"{x!r},{y!r}\n")
    return xs, fx


def operator_profile(tmp: Path, seed: int) -> list[Op]:
    refs = _load_references()["operator-profile"]
    table = tmp / "table.csv"
    f_table = oracle.table_function(*write_table(table, seed))
    ops = []
    for fn, op in PROFILE_SCANS:
        key = f"scan-{fn}-{op}"
        source = ["--fn-csv", str(table)] if fn == "table" else ["--fn", fn]
        f = f_table if fn == "table" else oracle.FUNCTIONS[fn]

        def body(rep, ref=refs.get(key), f=f, op=op):
            return _per_n(rep, ref, lambda n, x: oracle.popoviciu_ratio(f, n, x, op))

        args = ["scan", "--popoviciu", *source, "--op", op, "--n", PROFILE_N, "--points", PROFILE_POINTS]
        ops.append(Op(key, args, True, lambda code, text, body=body: _json_check(code, text, body)))

    n = EXPORT_N
    rn = lambda x: oracle.operator(f_table, n, x, oracle.rn_c(n, x)) if 0.0 < x < 1.0 else float(f_table(x))
    bern = lambda x: oracle.operator(f_table, n, x, 0.0) if 0.0 < x < 1.0 else float(f_table(x))

    def eval_cells(row):
        x = row[0]
        fx, opx = float(f_table(x)), rn(x)
        return [x, fx, opx, opx - fx]

    def compare_cells(row):
        x = row[0]
        fx = float(f_table(x))
        return [x, bern(x) - fx, rn(x) - fx]

    out = tmp / "eval.csv"
    ops.append(Op("eval-export", ["eval", "--op", "rn", "--fn-csv", str(table), "--n", str(n),
                                  "--grid-points", str(EXPORT_POINTS), "--out", str(out)],
                  False, _csv_check(out, ["x", "fx", "opx", "error"], EXPORT_POINTS, eval_cells)))
    out = tmp / "compare.csv"
    ops.append(Op("compare-export", ["compare", "--fn-csv", str(table), "--n", str(n),
                                     "--points", str(EXPORT_POINTS), "--out", str(out)],
                  False, _csv_check(out, ["x", "err_bernstein", "err_rn"], EXPORT_POINTS, compare_cells)))
    return ops


# --- point queries --------------------------------------------------------

QUERIES_PER_KIND = 200
QUERY_N_MAX = 200
QUERY_KINDS = (
    "polya_operator_eval",
    "bernstein_eval",
    "f_n_c",
    "sikkema_function",
    "truncated_first_moment.closed",
    "truncated_first_moment.brute",
)


def _near_breakpoint(n: int, x: float) -> bool:
    a = n * x - math.sqrt(n)
    return abs(a - round(a)) < 1e-6


def make_queries(seed: int) -> list[dict]:
    """Seeded single-point calls.  Within each kind, n is drawn once from
    each of QUERIES_PER_KIND equal strata of 2..QUERY_N_MAX, so every seed
    gives the same spread of sizes; x, the function, the profile, c, r and
    the order of the calls come from the seed."""
    rng = np.random.default_rng(seed)
    fns = sorted(oracle.FUNCTIONS)
    queries = []
    span = QUERY_N_MAX - 1
    for kind in QUERY_KINDS:
        for i in range(QUERIES_PER_KIND):
            n = 2 + int((i + rng.uniform()) * span / QUERIES_PER_KIND)
            x = float(rng.uniform(0.001, 0.999))
            while _near_breakpoint(n, x) or _near_breakpoint(n, 1.0 - x):
                x = float(rng.uniform(0.001, 0.999))
            c = float(rng.uniform()) * oracle.rn_c(n, x)  # admissible: between the boundary and 0
            q = {"kind": kind, "n": n, "x": x}
            if kind == "polya_operator_eval":
                q["fn"] = fns[rng.integers(len(fns))]
                q["profile"] = ("rn", "zero", "constant")[rng.integers(3)]
                if q["profile"] == "constant":
                    q["c"] = float(rng.uniform(0.0, 0.05))
            elif kind == "bernstein_eval":
                q["fn"] = fns[rng.integers(len(fns))]
            elif kind == "f_n_c":
                q["c"] = c
            elif kind == "sikkema_function":
                q["c_mode"] = ("zero", "rn")[rng.integers(2)]
            else:
                q["c"] = c
                q["r"] = int(rng.integers(n))
            queries.append(q)
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def query_reference(q: dict) -> float:
    kind, n, x = q["kind"], q["n"], q["x"]
    if kind == "polya_operator_eval":
        c = {"rn": oracle.rn_c(n, x), "zero": 0.0}.get(q["profile"], q.get("c"))
        return oracle.operator(oracle.FUNCTIONS[q["fn"]], n, x, c)
    if kind == "bernstein_eval":
        return oracle.operator(oracle.FUNCTIONS[q["fn"]], n, x, 0.0)
    if kind == "f_n_c":
        return oracle.f_n_c(n, x, q["c"])
    if kind == "sikkema_function":
        return oracle.sikkema(n, x, q["c_mode"])
    return oracle.truncated_moment(n, x, q["c"], q["r"])


# workload -> (CLI commands, whether a pass also runs the point queries).
# scan-verify runs F_n^c through the scan kernel and, in verify, through the
# brute-force oracle; operator-queries runs no analysis code.
WORKLOADS = {
    "scan-verify": (lambda tmp, seed: sikkema_scan(tmp, seed) + verify_sweep(tmp, seed), False),
    "operator-queries": (operator_profile, True),
}
SEEDED = {"operator-queries"}
