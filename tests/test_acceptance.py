"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on stdout.
"""

import math
import subprocess
import sys

import numpy as np

from polya_bernstein import analysis, operators
from polya_bernstein.operators import BUILTIN_FUNCTIONS, CProfile
from polya_bernstein.polya import pmf_matrix
from polya_bernstein.reports import GridSpec


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _sweep_params():
    xs = np.linspace(0.0, 1.0, 101)
    for n in range(1, 51):
        modes = [np.zeros_like(xs)]
        if n > 1:
            modes.append(CProfile("rn").c_at(xs, n))
        for cs in modes:
            yield n, xs, cs


def test_criterion_1_pmf_normalization():
    worst = 0.0
    for n, xs, cs in _sweep_params():
        sums = pmf_matrix(n, xs, cs).sum(axis=0)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    _report(1, "pmf normalization", worst <= 1e-12, f"max |sum-1| = {worst:.3e}")


def test_criterion_2_moment_formulas():
    worst_mean, worst_var = 0.0, 0.0
    for n, xs, cs in _sweep_params():
        probs = pmf_matrix(n, xs, cs)
        k = np.arange(n + 1, dtype=float)
        emp_mean = k @ probs
        emp_var = ((k[:, None] - emp_mean) ** 2 * probs).sum(axis=0)
        mean = n * xs
        var = n * xs * (1 - xs) * (1 + (n - 1) * cs / (1 + cs))
        worst_mean = max(worst_mean, float(np.abs(emp_mean - mean).max()))
        worst_var = max(worst_var, float(np.abs(emp_var - var).max()))
    ok = worst_mean <= 1e-10 and worst_var <= 1e-9
    _report(2, "moment formulas", ok, f"mean diff {worst_mean:.3e}, var diff {worst_var:.3e}")


def test_criterion_3_c_zero_degeneracy():
    xs = np.linspace(0.0, 1.0, 101)
    zero = CProfile("zero")
    worst = 0.0
    for f in BUILTIN_FUNCTIONS.values():
        for n in range(2, 21):
            urn = f(np.arange(n + 1) / n) @ pmf_matrix(n, xs, 0.0)
            diff = np.abs(operators.operator_curve(f, n, xs, zero) - urn).max()
            worst = max(worst, float(diff))
    _report(3, "c=0 degeneracy", worst <= 1e-13, f"max |zero-profile - c=0 urn pmf| = {worst:.3e}")


def test_criterion_4_kozniewska_identity():
    (rep,) = analysis.verify_sweep(range(2, 41), ["kozniewska"], GridSpec(points=2001), c_samples=21)
    ok = rep.passed and abs(rep.worst_margin) <= 1e-12
    _report(4, "Kozniewska identity + reflection", ok,
            f"worst |diff| = {rep.details['worst_abs_diff']:.3e} over {rep.samples_checked} samples")


def test_criterion_5_lemma_sweep():
    (rep,) = analysis.verify_sweep(range(2, 41), ["lemma"], GridSpec(points=2001), c_samples=21)
    ok = rep.passed and rep.worst_margin >= -1e-13 and rep.details["strict_ok"]
    _report(5, "rising-factorial inequality sweep", ok,
            f"worst margin = {rep.worst_margin:.3e}, strict ok = {rep.details['strict_ok']}, "
            f"{rep.samples_checked} samples")


def test_criterion_6_sikkema_scan_zero_mode():
    rep = analysis.scan_sup(range(2, 31), "zero", GridSpec(points=10001))
    sups = {n: s for n, s, _ in rep.per_n}
    bad_other = {n: s for n, s in sups.items() if n != 6 and s > 1.0897 + 5e-5}
    n6_ok = 1.0897 <= sups[6] <= 1.08990
    ok = not bad_other and n6_ok
    _report(6, "Sikkema scan, zero mode", ok,
            f"n=6 sup = {sups[6]:.7f} (expected within [1.0897, 1.08990]); "
            f"n!=6 violations: {bad_other or 'none'}")


def test_criterion_7_n6_case():
    rep = analysis.n6_case_check()
    d = rep.details
    _report(7, "n=6 case reproduction", rep.passed,
            f"interval sup {d['interval_sup']['value']:.8f} <= 0.0072168, "
            f"vanishing piece {d['vanishing_piece_sup']['value']:.2e}, "
            f"global {d['global_sup']['value']:.8f} <= 0.014272, "
            f"bound sup {d['sikkema_sup']['value']:.8f} <= 1.0699144")


def test_criterion_8_theorem_level_bound():
    grid = GridSpec(points=2001)
    worst, where = 0.0, None
    for name, f in BUILTIN_FUNCTIONS.items():
        for n, sup, _ in operators.popoviciu_scan(f, range(2, 31), grid, "rn").per_n:
            if sup > worst:
                worst, where = sup, (name, n)
    ok = worst <= 1.08970 + 1e-6
    _report(8, "uniform error / modulus ratio bound", ok,
            f"max ratio = {worst:.6f} at {where} (bound 1.089701)")


def test_criterion_9_f_dominance():
    worst = -math.inf
    for n in range(2, 41):
        xs = np.linspace(0.0, 1.0, 2001)
        gap = analysis.f_n_c_curve(n, xs, CProfile("rn").c_at(xs, n)) - analysis.f_n_c_curve(n, xs, 0.0)
        worst = max(worst, float(gap.max()))
    _report(9, "boundary-profile dominance", worst <= 1e-13,
            f"max F^c - F^0 = {worst:.3e}")


def test_criterion_10_conjecture_scan():
    (rep,) = analysis.verify_sweep(range(2, 21), ["conjecture"], GridSpec(points=2001), c_samples=21)
    ok = rep.samples_checked > 0 and rep.finding is not None
    if rep.finding:
        ok = ok and {"n", "x", "r"} <= set(rep.witness)
    _report(10, "monotonicity-in-c exploration", ok,
            f"finding = {rep.finding}, worst c-step = {rep.worst_margin:.3e}, "
            f"{rep.samples_checked} samples")


CRITERIA_CMDS = [
    ["verify", "--lemma", "--kozniewska", "--n", "2..40", "--points", "2001", "--c-samples", "21"],
    ["verify", "--n6"],
    ["verify", "--conjecture", "--n", "2..20"],
    ["scan", "--sikkema", "--n", "2..30", "--points", "10001", "--c-mode", "zero"],
    ["scan", "--popoviciu", "--fn", "abs-mid", "--op", "rn", "--n", "2..30", "--points", "2001"],
]


def test_criterion_11_determinism(tmp_path):
    identical = True
    for i, cmd in enumerate(CRITERIA_CMDS):
        outs = []
        for workers in ("1", "2"):
            path = tmp_path / f"{i}_{workers}.json"
            res = subprocess.run(
                [sys.executable, "-m", "polya_bernstein.cli", *cmd,
                 "--workers", workers, "--out", str(path)],
                capture_output=True, text=True,
            )
            assert res.returncode in (0, 1), res.stderr
            outs.append(path.read_bytes())
        identical = identical and outs[0] == outs[1]
    _report(11, "byte-identical JSON across worker counts", identical,
            f"{len(CRITERIA_CMDS)} command pairs compared")
