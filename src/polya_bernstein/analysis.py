"""Verification machinery for the sup-norm error bound of the urn operator.

Centerpiece is the truncated-first-moment function

    F_n^c(x) = 0                                          for x <= 1/sqrt(n)
             = C(n-1,r) x^(r+1,c) (1-x)^(n-r,c) / 1^(n,c) for x >  1/sqrt(n)

with truncation index r = ]n x - sqrt(n)[ (strict floor).  The module scans
two Sikkema-style quantities over n and x:

  * "bracket": Sikkema's bracket sum
        S_n^c(x) = 1 + sum_k ]sqrt(n) |x - k/n|[ p_k^c(x),
    with p_k^c the urn pmf and negative brackets read as 0.  For c = 0 its
    sup over n and x is Sikkema's constant (4306 + 837 sqrt(6))/5832,
    attained at n = 6.
  * "majorant": the closed-form bound 1 + sqrt(n) (F_n^c(x) + F_n^c(1-x)),
    which dominates S_n^c pointwise since ]lam[ <= lam and ]lam[ = 0 for
    lam <= 1.  This is the bound the paper proves for the boundary profile.

It also verifies the rising-factorial inequality underlying the c <= 0
comparison, cross-checks the closed form against brute-force pmf sums,
reproduces the n = 6 case bounds, and explores the monotonicity-in-c
conjecture.

F_n^c jumps at the breakpoints x = 1/sqrt(n) + k/n where r(x) changes, and
S_n^c at x = k/n +- m/sqrt(n) where a bracket changes, so sup scans refine
the grid one-sided around every jump of the scanned quantity.
"""

from __future__ import annotations

import math
import multiprocessing
from typing import Any, Iterable, Sequence

import numpy as np

from .numeric_core import factorial_ratio, strict_floor_bracket
from .polya import (
    PolyaParams,
    log_rising,
    pmf_matrix,
    rising_products,
    validate,
    validate_sweep,
)
from .reports import GridSpec, ScanReport, VerificationReport

__all__ = [
    "f_n_c",
    "f_n_c_curve",
    "sikkema_function",
    "breakpoints",
    "bracket_jumps",
    "bracket_curve",
    "scan_curve",
    "scan_sup",
    "verify_lemma_claim",
    "verify_kozniewska",
    "n6_case_check",
    "conjecture_scan",
]

LEMMA_TOL = 1e-13
IDENTITY_TOL = 1e-12
STRICT_C_CUTOFF = -1e-10
# bracket_curve evaluates its (n+1) x M pmf and bracket weights in column
# blocks of at most this many bytes per array, so memory stays flat in M.
BLOCK_BYTES = 4 << 20


def rn_profile_c(x, n: int):
    """Boundary replacement profile c(x) = -min{x,1-x}/(n-1)."""
    if n <= 1:
        raise ValueError(f"profile requires n > 1, got {n}")
    x = np.asarray(x, dtype=float)
    return -np.minimum(x, 1.0 - x) / (n - 1)


def breakpoints(n: int) -> list[float]:
    """Jump locations of r(x) = ]n x - sqrt(n)[ inside (0, 1)."""
    root = math.sqrt(n)
    pts = []
    k = 0
    while True:
        b = 1.0 / root + k / n
        if b >= 1.0:
            break
        pts.append(b)
        k += 1
    return pts


def bracket_jumps(n: int) -> list[float]:
    """Jump locations x = k/n +- m/sqrt(n) (m >= 1) of the brackets
    ]sqrt(n) |x - k/n|[ inside (0, 1), sorted."""
    root = math.sqrt(n)
    pts = set()
    for k in range(n + 1):
        for m in range(1, math.isqrt(n) + 1):
            for p in (k / n - m / root, k / n + m / root):
                if 0.0 < p < 1.0:
                    pts.add(p)
    return sorted(pts)


def f_n_c(n: int, x: float, c: float) -> float:
    """The truncated-first-moment function F_n^c at a single point."""
    if n <= 1:
        raise ValueError(f"F_n^c requires n > 1, got {n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x}")
    validate(PolyaParams(n, x, 1.0 - x, c))
    if x <= 1.0 / math.sqrt(n):
        return 0.0
    r = strict_floor_bracket(n * x - math.sqrt(n))
    if r < 0:
        return 0.0
    r = min(r, n - 1)
    return math.comb(n - 1, r) * factorial_ratio(x, r, n, c)


def _strict_floor_vec(a: np.ndarray) -> np.ndarray:
    eps = 1e-12 * np.maximum(1.0, np.abs(a))
    nearest = np.rint(a)
    snapped = np.abs(a - nearest) <= eps
    return np.where(snapped, nearest - 1.0, np.floor(a)).astype(int)


def f_n_c_curve(n: int, xs: np.ndarray, cs) -> np.ndarray:
    """Vectorized F_n^c over a grid, O(1) work per point: the log-binomial
    comes from a table and the three rising factorials from
    :func:`~polya_bernstein.polya.log_rising`.  Agrees with :func:`f_n_c`
    to relative error ~1e-13 for n <= 400 and c <= 1/(n-1), growing to
    ~eps |log 1^(n,c)| for n c >> 1.  A factor vanishing at the
    admissibility boundary gives an exact 0."""
    if n <= 1:
        raise ValueError(f"F_n^c requires n > 1, got {n}")
    xs = np.asarray(xs, dtype=float)
    cs = np.broadcast_to(np.asarray(cs, dtype=float), xs.shape)
    r = _strict_floor_vec(n * xs - math.sqrt(n))
    active = (xs > 1.0 / math.sqrt(n)) & (r >= 0)
    out = np.zeros_like(xs)
    if not np.any(active):
        return out
    x = xs[active]
    c = cs[active]
    validate_sweep(n, x, c)
    rr = np.minimum(r[active], n - 1)
    log_binom = np.array([math.log(math.comb(n - 1, k)) for k in range(n)])
    out[active] = np.exp(
        log_binom[rr]
        + log_rising(x, rr + 1, c)
        + log_rising(1.0 - x, n - rr, c)
        - log_rising(1.0, n, c)
    )
    return out


def sikkema_function(n: int, x: float, c_mode: str = "zero") -> float:
    """The majorant 1 + sqrt(n) (F_n^c(x) + F_n^c(1-x)) with c taken once
    from x.

    c_mode "zero" fixes c = 0; "rn" uses the boundary profile, whose value
    is symmetric in x <-> 1-x, so a single c serves both F arguments.
    """
    c = _mode_c(n, x, c_mode)
    return 1.0 + math.sqrt(n) * (f_n_c(n, x, c) + f_n_c(n, 1.0 - x, c))


def _mode_c(n: int, x, c_mode: str):
    if c_mode == "zero":
        return np.zeros_like(np.asarray(x, dtype=float))
    if c_mode == "rn":
        return rn_profile_c(x, n)
    raise ValueError(f"unknown c-mode {c_mode!r}; use 'zero' or 'rn'")


def _sym_scan_grid(n: int, grid: GridSpec, jumps: Sequence[float] | None = None) -> np.ndarray:
    """Scan grid on [0,1], exactly closed under x -> 1-x.

    jumps (default: the majorant's :func:`breakpoints`) are refined
    one-sided when the grid spec asks for it.  Candidates are folded into
    the upper half [1/2, 1] (where 1-x is exact in floating point) and
    mirrored back, so every grid point's reflection is itself a grid point
    bit-for-bit.
    """
    cands = [np.linspace(0.0, 1.0, grid.points)]
    if grid.refine_breakpoints:
        off = grid.breakpoint_offset
        extra = []
        for b in breakpoints(n) if jumps is None else jumps:
            for p in (b - off, b, b + off):
                if 0.0 <= p <= 1.0:
                    extra.append(p)
        if extra:
            cands.append(np.array(extra))
    pts = np.concatenate(cands)
    upper = np.where(pts >= 0.5, pts, 1.0 - pts)
    upper = np.unique(upper)
    return np.unique(np.concatenate([1.0 - upper, upper]))


def sikkema_curve(n: int, xs: np.ndarray, c_mode: str) -> np.ndarray:
    """Vectorized :func:`sikkema_function` (the majorant) over a grid."""
    xs = np.asarray(xs, dtype=float)
    cs = _mode_c(n, xs, c_mode)
    return 1.0 + math.sqrt(n) * (
        f_n_c_curve(n, xs, cs) + f_n_c_curve(n, 1.0 - xs, cs)
    )


def bracket_curve(n: int, xs: np.ndarray, c_mode: str) -> np.ndarray:
    """Sikkema's bracket sum S_n^c(x) = 1 + sum_k ]sqrt(n) |x - k/n|[ p_k^c(x)
    over a grid, with c taken from x as in :func:`sikkema_function`.

    ]lam[ is the strict floor, read as 0 for lam <= 1 (including lam = 0),
    so at a jump x = k/n +- m/sqrt(n) the curve takes its lower one-sided
    value.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    cs = _mode_c(n, xs, c_mode)
    k = np.arange(n + 1, dtype=float)[:, None]
    out = np.empty_like(xs)
    # Each column is summed on its own, so blocking changes no bit.
    block = max(1, BLOCK_BYTES // (8 * (n + 1)))
    for s in range(0, xs.size, block):
        x = xs[s : s + block]
        probs = pmf_matrix(n, x, cs[s : s + block])
        lam = math.sqrt(n) * np.abs(x[None, :] - k / n)
        weights = np.maximum(_strict_floor_vec(lam), 0)
        out[s : s + block] = 1.0 + (weights * probs).sum(axis=0)
    return out


BOUNDS = ("bracket", "majorant")


def scan_curve(
    n: int, c_mode: str, grid: GridSpec, bound: str
) -> tuple[np.ndarray, np.ndarray]:
    """The scanned quantity on its own grid: (xs, values), with the grid
    refined one-sided at the quantity's jumps."""
    if bound == "bracket":
        xs = _sym_scan_grid(n, grid, bracket_jumps(n))
        return xs, bracket_curve(n, xs, c_mode)
    if bound == "majorant":
        xs = _sym_scan_grid(n, grid, breakpoints(n))
        return xs, sikkema_curve(n, xs, c_mode)
    raise ValueError(f"unknown bound {bound!r}; use one of {', '.join(BOUNDS)}")


def _scan_sup_one(args) -> tuple[int, float, float]:
    n, c_mode, grid, bound = args
    xs, vals = scan_curve(n, c_mode, grid, bound)
    idx = int(np.argmax(vals))  # first occurrence: ties break toward smaller x
    return n, float(vals[idx]), float(xs[idx])


def _parse_n_range(n_range: Iterable[int] | tuple[int, int]) -> list[int]:
    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise ValueError("empty n range")
    if ns[0] < 2:
        raise ValueError(f"scans require n >= 2, got {ns[0]}")
    return ns


def _map_over_n(fn, args_list: Sequence, workers: int = 1) -> list:
    """Deterministic per-n map; worker count never changes the reduction order."""
    if workers > 1 and len(args_list) > 1:
        with multiprocessing.Pool(min(workers, len(args_list))) as pool:
            return pool.map(fn, args_list)
    return [fn(a) for a in args_list]


def scan_sup(
    n_range: Iterable[int],
    c_mode: str = "zero",
    grid: GridSpec = GridSpec(),
    workers: int = 1,
    bound: str | None = None,
) -> ScanReport:
    """Per-n and global sup of a Sikkema-style quantity.

    bound selects the quantity: "bracket" is Sikkema's bracket sum S_n^c,
    "majorant" is 1 + sqrt(n) (F_n^c(x) + F_n^c(1-x)).  The default follows
    the profile: the bracket sum for c_mode "zero", whose sup is Sikkema's
    constant, and the majorant for c_mode "rn", the paper's bound for the
    urn operator.  The report records it as ``meta["bound"]``.

    One-sided refinement at the quantity's jumps is controlled by the grid
    spec; the global reduction breaks ties lexicographically on (n, x).
    """
    ns = _parse_n_range(n_range)
    if ns[-1] > 200:
        raise ValueError(f"scan range capped at n = 200, got {ns[-1]}")
    if grid.points < 1000:
        raise ValueError(f"sup scans need >= 1000 grid points, got {grid.points}")
    _mode_c(2, 0.5, c_mode)  # validate mode early
    if bound is None:
        bound = "bracket" if c_mode == "zero" else "majorant"
    elif bound not in BOUNDS:
        raise ValueError(f"unknown bound {bound!r}; use one of {', '.join(BOUNDS)}")
    per_n = _map_over_n(_scan_sup_one, [(n, c_mode, grid, bound) for n in ns], workers)
    best_n, best_sup, best_x = per_n[0]
    for n, sup_n, ax in per_n[1:]:
        if sup_n > best_sup:
            best_n, best_sup, best_x = n, sup_n, ax
    return ScanReport(
        sup=best_sup,
        argmax_x=best_x,
        argmax_n=best_n,
        grid=grid,
        per_n=tuple(per_n),
        meta={"c_mode": c_mode, "n_range": [ns[0], ns[-1]], "bound": bound},
    )


def _lemma_cells(n: int, grid: GridSpec, c_samples: int):
    """Flattened (x, c) sweep for one n: every grid x paired with c_samples
    uniform multipliers of the boundary value, plus per-column rmax."""
    xs = np.linspace(0.0, 1.0, grid.points)
    fracs = np.linspace(1.0, 0.0, c_samples)
    cmin = rn_profile_c(xs, n)
    X = np.repeat(xs, c_samples)
    C = (cmin[:, None] * fracs[None, :]).ravel()
    rmax = np.floor(n * X - math.sqrt(n) + 1e-12).astype(int)
    rmax = np.minimum(rmax, n - 1)
    return X, C, rmax


def _verify_lemma_one(args) -> dict[str, Any]:
    n, grid, c_samples = args
    X, C, rmax = _lemma_cells(n, grid, c_samples)
    cum_a, cum_b, den = rising_products(n, X, C)
    worst = math.inf
    witness: dict[str, Any] = {}
    strict_ok = True
    strict_witness: dict[str, Any] = {}
    checked = 0
    for r in range(max(0, int(rmax.max()) + 1)):
        cols = np.nonzero(rmax >= r)[0]
        if cols.size == 0:
            continue
        lhs = cum_a[r + 1, cols] * cum_b[n - r, cols] / den[cols]
        rhs = X[cols] ** (r + 1) * (1.0 - X[cols]) ** (n - r)
        margin = rhs - lhs
        checked += cols.size
        j = int(np.argmin(margin))
        if margin[j] < worst:
            worst = float(margin[j])
            witness = {"n": n, "x": float(X[cols[j]]), "c": float(C[cols[j]]), "r": r}
        strict = C[cols] < STRICT_C_CUTOFF
        if np.any(strict) and margin[strict].min() <= 0.0:
            strict_ok = False
            js = cols[strict][int(np.argmin(margin[strict]))]
            strict_witness = {"n": n, "x": float(X[js]), "c": float(C[js]), "r": r}
    return {
        "n": n,
        "worst": worst,
        "witness": witness,
        "strict_ok": strict_ok,
        "strict_witness": strict_witness,
        "checked": checked,
    }


def verify_lemma_claim(
    n_range: Iterable[int],
    grid: GridSpec = GridSpec(points=2001),
    c_samples: int = 21,
    workers: int = 1,
) -> VerificationReport:
    """Sweep the rising-factorial inequality
    x^(r+1,c)(1-x)^(n-r,c)/1^(n,c) <= x^(r+1) (1-x)^(n-r)
    over every n in range, grid x, integer 0 <= r <= n x - sqrt(n), and
    c_samples values spanning [-min{x,1-x}/(n-1), 0].

    Strict inequality is additionally demanded for c < -1e-10 (at c ~ 0 the
    margin is rounding noise and only the non-strict form is asserted).
    """
    ns = _parse_n_range(n_range)
    results = _map_over_n(_verify_lemma_one, [(n, grid, c_samples) for n in ns], workers)
    worst = math.inf
    witness: dict[str, Any] = {}
    strict_ok = True
    strict_witness: dict[str, Any] = {}
    checked = 0
    for res in results:
        checked += res["checked"]
        if res["worst"] < worst:
            worst = res["worst"]
            witness = res["witness"]
        if not res["strict_ok"] and strict_ok:
            strict_ok = False
            strict_witness = res["strict_witness"]
    passed = worst >= -LEMMA_TOL and strict_ok
    return VerificationReport(
        claim_id="rising-factorial-inequality",
        passed=passed,
        worst_margin=worst,
        witness=witness,
        samples_checked=checked,
        tolerance=LEMMA_TOL,
        details={"strict_ok": strict_ok, "strict_witness": strict_witness},
    )


def _verify_kozniewska_one(args) -> dict[str, Any]:
    n, grid, c_samples = args
    X, C, _ = _lemma_cells(n, grid, c_samples)
    cum_a, cum_b, den = rising_products(n, X, C)
    binom_n = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    binom_n1 = np.array([math.comb(n - 1, k) for k in range(n)], dtype=float)
    closed = binom_n1[:, None] * cum_a[1 : n + 1] * cum_b[n:0:-1] / den
    # The pmf overwrites cum_a and later products reuse their buffers, so at
    # most three (n+1) x M arrays are alive past this point.
    probs = np.multiply(binom_n[:, None], cum_a, out=cum_a)
    probs *= cum_b[::-1]
    probs /= den
    del cum_b
    k = np.arange(n + 1, dtype=float)[:, None]
    partial = X[None, :] - k / n
    partial *= probs
    np.cumsum(partial, axis=0, out=partial)  # partial[r] = sum_{k<=r}
    diff = np.abs(np.subtract(partial[:n], closed, out=closed), out=closed)
    j_flat = int(np.argmax(diff))
    rj, cj = np.unravel_index(j_flat, diff.shape)
    worst_diff = float(diff[rj, cj])
    witness = {
        "check": "truncated-moment",
        "n": n,
        "x": float(X[cj]),
        "c": float(C[cj]),
        "r": int(rj),
    }
    checked = int(diff.size)

    # Reflection: the tail over {k : x - k/n < -1/sqrt(n)} rewritten through
    # k = n - k' must equal F_n^c(1-x), here from the log-space kernel that
    # the scans run.  The strict threshold is realized by the snapped
    # bracket r' = ]n(1-x) - sqrt(n)[.
    rp = _strict_floor_vec(n * (1.0 - X) - math.sqrt(n))
    active = (1.0 - X > 1.0 / math.sqrt(n)) & (rp >= 0)
    tail = np.zeros_like(X)
    if np.any(active):
        cols = np.nonzero(active)[0]
        rr = np.minimum(rp[cols], n - 1)
        terms = np.subtract((1.0 - X)[None, :], k / n, out=partial)
        terms *= probs[::-1]
        np.cumsum(terms, axis=0, out=terms)  # terms[r] = sum_{k'<=r}
        tail[cols] = terms[rr, cols]
    rdiff = np.abs(tail - f_n_c_curve(n, 1.0 - X, C))
    jr = int(np.argmax(rdiff))
    checked += int(X.size)
    if rdiff[jr] > worst_diff:
        worst_diff = float(rdiff[jr])
        witness = {"check": "reflection", "n": n, "x": float(X[jr]), "c": float(C[jr])}
    return {"n": n, "worst_diff": worst_diff, "witness": witness, "checked": checked}


def verify_kozniewska(
    n_range: Iterable[int],
    grid: GridSpec = GridSpec(points=2001),
    c_samples: int = 21,
    workers: int = 1,
) -> VerificationReport:
    """Closed-form truncated first moments vs brute-force pmf sums (all
    truncation levels r = 0..n-1), plus the left-tail reflection identity
    against F_n^c(1-x), over the (n, x, c) sweep."""
    ns = _parse_n_range(n_range)
    results = _map_over_n(
        _verify_kozniewska_one, [(n, grid, c_samples) for n in ns], workers
    )
    worst_diff = 0.0
    witness: dict[str, Any] = {}
    checked = 0
    for res in results:
        checked += res["checked"]
        if res["worst_diff"] > worst_diff or not witness:
            worst_diff = res["worst_diff"]
            witness = res["witness"]
    return VerificationReport(
        claim_id="kozniewska-identity",
        passed=worst_diff <= IDENTITY_TOL,
        worst_margin=-worst_diff,
        witness=witness,
        samples_checked=checked,
        tolerance=IDENTITY_TOL,
        details={"worst_abs_diff": worst_diff},
    )


N6_INTERVAL_BOUND = 0.0072168      # interval (1/sqrt(6), 1/2]
N6_GLOBAL_BOUND = 0.014271         # sup of F_6^{c(x)} over [0,1]
N6_SIKKEMA_BOUND = 1.0699134       # sup of 1 + sqrt(6)(F(x) + F(1-x))
N6_BOUND_TOL = 1e-6                # the printed constants carry ~5 digits
N6_ZERO_TOL = 1e-14


def n6_case_check(points_per_interval: int = 50001) -> VerificationReport:
    """Reproduce the n = 6 case bounds from the F_6^c definition.

    With the boundary profile c(x) = -min{x,1-x}/5, checks:
      (i)   sup over (1/sqrt(6), 1/2]           <= 0.0072168
      (ii)  F vanishes on (1/2, 1/sqrt(6)+1/6]  (to rounding noise)
      (iii) global sup over [0,1]               <= 0.014271 + 1e-6
      (iv)  sup of 1 + sqrt(6)(F(x)+F(1-x))     <= 1.0699134 + 1e-6
    """
    n = 6
    s = 1.0 / math.sqrt(6.0)
    off = 1e-9

    def curve(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        xs = np.linspace(lo + off, hi, points_per_interval)
        return xs, f_n_c_curve(n, xs, rn_profile_c(xs, n))

    _, f1 = curve(s, 0.5)
    sup_i = float(f1.max())

    _, f2 = curve(0.5, s + 1.0 / 6.0)
    sup_ii = float(np.abs(f2).max())

    sup_iii = max(sup_i, sup_ii)
    for k in range(4):
        lo = s + k / 6.0
        hi = min(s + (k + 1) / 6.0, 1.0)
        _, fk = curve(lo, hi)
        sup_iii = max(sup_iii, float(fk.max()))

    grid = GridSpec(points=4 * points_per_interval + 1)
    xs, vals = scan_curve(n, "rn", grid, "majorant")
    sup_iv = float(vals.max())

    checks = {
        "interval_sup": {"value": sup_i, "bound": N6_INTERVAL_BOUND},
        "vanishing_piece_sup": {"value": sup_ii, "bound": N6_ZERO_TOL},
        "global_sup": {"value": sup_iii, "bound": N6_GLOBAL_BOUND + N6_BOUND_TOL},
        "sikkema_sup": {"value": sup_iv, "bound": N6_SIKKEMA_BOUND + N6_BOUND_TOL},
    }
    margins = {name: c["bound"] - c["value"] for name, c in checks.items()}
    worst_name = min(margins, key=margins.get)
    passed = all(m >= 0.0 for m in margins.values())
    return VerificationReport(
        claim_id="n6-case",
        passed=passed,
        worst_margin=margins[worst_name],
        witness={"check": worst_name},
        samples_checked=6 * points_per_interval + xs.size,
        tolerance=0.0,
        details=checks,
    )


def conjecture_scan(
    n_range: Iterable[int],
    grid: GridSpec = GridSpec(points=2001),
    c_grid_size: int = 21,
    c_max: float = 0.2,
) -> VerificationReport:
    """Explore whether the rising-factorial ratio is nondecreasing in c on
    [-min{x,1-x}/(n-1), c_max] for every (n, x, r) with r <= n x - sqrt(n).

    A monotonicity violation is surfaced as a witness (``finding``), not a
    failure; the conjecture is open.
    """
    if c_max < 0:
        raise ValueError(f"c_max must be >= 0, got {c_max}")
    if c_grid_size < 2:
        raise ValueError(f"c grid needs >= 2 points, got {c_grid_size}")
    ns = _parse_n_range(n_range)
    worst = math.inf
    witness: dict[str, Any] = {}
    checked = 0
    for n in ns:
        xs = np.linspace(0.0, 1.0, grid.points)
        rmax_x = np.minimum(
            np.floor(n * xs - math.sqrt(n) + 1e-12).astype(int), n - 1
        )
        active = (rmax_x >= 0) & (np.minimum(xs, 1.0 - xs) > 0.0)
        if not np.any(active):
            continue
        xa = xs[active]
        ra = rmax_x[active]
        fracs = np.linspace(0.0, 1.0, c_grid_size)
        cmin = rn_profile_c(xa, n)
        # per-x c grid from the admissibility boundary up to c_max
        C = (cmin[None, :] + fracs[:, None] * (c_max - cmin[None, :])).ravel()
        X = np.tile(xa, (c_grid_size, 1)).ravel()
        cum_a, cum_b, den = rising_products(n, X, C)
        for r in range(int(ra.max()) + 1):
            sel = ra >= r
            if not np.any(sel):
                continue
            ratio = (cum_a[r + 1] * cum_b[n - r] / den).reshape(c_grid_size, xa.size)
            diffs = np.diff(ratio[:, sel], axis=0)
            checked += int(diffs.size)
            j_flat = int(np.argmin(diffs))
            ji, jx = np.unravel_index(j_flat, diffs.shape)
            if diffs[ji, jx] < worst:
                worst = float(diffs[ji, jx])
                xw = xa[sel][jx]
                witness = {
                    "n": n,
                    "x": float(xw),
                    "r": r,
                    "c_lo": float(C.reshape(c_grid_size, xa.size)[ji][np.nonzero(sel)[0][jx]]),
                    "c_hi": float(C.reshape(c_grid_size, xa.size)[ji + 1][np.nonzero(sel)[0][jx]]),
                }
    monotone = worst >= -LEMMA_TOL
    return VerificationReport(
        claim_id="monotone-in-c-conjecture",
        passed=monotone,
        worst_margin=worst,
        witness=witness,
        samples_checked=checked,
        tolerance=LEMMA_TOL,
        finding=not monotone,
        details={"c_max": c_max},
    )
