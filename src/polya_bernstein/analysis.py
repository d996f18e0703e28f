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

from .numeric_core import binomial_row, factorial_ratio, strict_floor_bracket
from .operators import CProfile
from .polya import (
    PolyaParams,
    _pmf_from_products,
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
    "verify_sweep",
    "n6_case_check",
    "conjecture_scan",
]

LEMMA_TOL = 1e-13
IDENTITY_TOL = 1e-12
STRICT_C_CUTOFF = -1e-10
# bracket_curve and the verifier sweeps work on (n+1)-row arrays in column
# blocks of at most this many bytes per array, so memory stays flat in the
# grid size and a block stays in cache.  Each column is computed on its own,
# so blocking changes no output bit.
BLOCK_BYTES = 2 << 20


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
    r = strict_floor_bracket(np.asarray(n * xs - math.sqrt(n)))  # 0-d xs: still an array
    active = (xs > 1.0 / math.sqrt(n)) & (r >= 0)
    out = np.zeros_like(xs)
    if not np.any(active):
        return out
    x = xs[active]
    c = cs[active]
    validate_sweep(n, x, c)
    rr = np.minimum(r[active], n - 1)
    out[active] = np.exp(
        binomial_row(n - 1, log=True)[rr]
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
    c = float(_profile(c_mode).c_at(x, n))
    return 1.0 + math.sqrt(n) * (f_n_c(n, x, c) + f_n_c(n, 1.0 - x, c))


def _profile(c_mode: str) -> CProfile:
    """The replacement profile of a scan's c-mode, "zero" or "rn"."""
    if c_mode not in ("zero", "rn"):
        raise ValueError(f"unknown c-mode {c_mode!r}; use 'zero' or 'rn'")
    return CProfile(c_mode)


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
    """Vectorized :func:`sikkema_function` (the majorant) over a grid.
    F_n^c(x) and F_n^c(1-x) come from one kernel call on both arguments."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    cs = _profile(c_mode).c_at(xs, n)
    f = f_n_c_curve(n, np.concatenate([xs, 1.0 - xs]), np.concatenate([cs, cs]))
    return 1.0 + math.sqrt(n) * (f[: xs.size] + f[xs.size :])


def _blocks(count: int, item_bytes: int):
    """(start, stop) ranges over count items of item_bytes each, at most
    BLOCK_BYTES per block and at least one item."""
    step = max(1, BLOCK_BYTES // item_bytes)
    for start in range(0, count, step):
        yield start, min(start + step, count)


def bracket_curve(n: int, xs: np.ndarray, c_mode: str) -> np.ndarray:
    """Sikkema's bracket sum S_n^c(x) = 1 + sum_k ]sqrt(n) |x - k/n|[ p_k^c(x)
    over a grid, with c taken from x as in :func:`sikkema_function`.

    ]lam[ is the strict floor, read as 0 for lam <= 1 (including lam = 0),
    so at a jump x = k/n +- m/sqrt(n) the curve takes its lower one-sided
    value.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    cs = _profile(c_mode).c_at(xs, n)
    k = np.arange(n + 1, dtype=float)[:, None]
    out = np.empty_like(xs)
    for s, e in _blocks(xs.size, 8 * (n + 1)):
        x = xs[s:e]
        probs = pmf_matrix(n, x, cs[s:e])
        lam = math.sqrt(n) * np.abs(x[None, :] - k / n)
        weights = np.maximum(strict_floor_bracket(lam), 0)
        out[s:e] = 1.0 + (weights * probs).sum(axis=0)
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
        # The grid is closed under x -> 1-x bit for bit and the majorant is
        # symmetric there (c(x) = c(1-x), and F(x) + F(1-x) is a commutative
        # sum), so the upper half is evaluated and mirrored.
        h = xs.size // 2
        upper = sikkema_curve(n, xs[h:], c_mode)
        return xs, np.concatenate([upper[::-1][:h], upper])
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
    _profile(c_mode)  # validate mode early
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


def _rmax(n: int, xs: np.ndarray) -> np.ndarray:
    """Largest integer r <= n x - sqrt(n) (up to 1e-12), capped at n - 1;
    negative where no r qualifies."""
    return np.minimum(np.floor(n * xs - math.sqrt(n) + 1e-12).astype(int), n - 1)


def _cumsum_rows(a: np.ndarray) -> None:
    """np.cumsum(a, axis=0, out=a), one contiguous row at a time: the same
    sums in the same order, without a walk that strides across columns."""
    for i in range(1, a.shape[0]):
        np.add(a[i - 1], a[i], out=a[i])


def _lemma_log_ratio(n: int, r: int, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """log of lhs / rhs in the lemma inequality, from the log-space kernel:
    < 0 where the inequality is strict, -inf where a factor vanishes."""
    return (
        log_rising(x, r + 1, c)
        + log_rising(1.0 - x, n - r, c)
        - log_rising(1.0, n, c)
        - ((r + 1) * np.log(x) + (n - r) * np.log1p(-x))
    )


class _LemmaSweep:
    """Per-n state of the rising-factorial inequality check ("lemma"):
    x^(r+1,c)(1-x)^(n-r,c)/1^(n,c) <= x^(r+1) (1-x)^(n-r) over grid x,
    integer 0 <= r <= n x - sqrt(n), and c_samples values spanning
    [-min{x,1-x}/(n-1), 0].

    Strict inequality is additionally demanded for c < -1e-10 (at c ~ 0 the
    margin is rounding noise and only the non-strict form is asserted).
    Where the right side underflows below the smallest normal float, the
    two sides are compared through their logs.

    Each r keeps its worst margin (and its worst failing strict margin)
    over the blocks seen so far; a later block replaces it only when
    strictly worse, so the first column wins ties, as a single unblocked
    argmin over the columns would."""

    def __init__(self, n: int, c_samples: int):
        self.n = n
        self.c_samples = c_samples
        self.worst = np.full(n, math.inf)
        self.witness: list[tuple[float, float] | None] = [None] * n
        self.strict = np.full(n, math.inf)
        self.strict_witness: list[tuple[float, float] | None] = [None] * n
        self.checked = 0

    def block(self, xb, rb, X, C, cum_a, cum_b, den) -> None:
        n, cs = self.n, self.c_samples
        strict_c = C < STRICT_C_CUTOFF
        for r in range(int(rb[-1]) + 1):
            # x and so rmax are nondecreasing: the cells with rmax >= r are
            # a suffix of the block.
            g = int(np.searchsorted(rb, r))
            s = g * cs
            lhs = cum_a[r + 1, s:] * cum_b[n - r, s:] / den[s:]
            rhs_x = xb[g:] ** (r + 1) * (1.0 - xb[g:]) ** (n - r)
            margin = np.repeat(rhs_x, cs) - lhs
            self.checked += margin.size
            j = int(np.argmin(margin))
            if margin[j] < self.worst[r]:
                self.worst[r] = margin[j]
                self.witness[r] = (X[s + j], C[s + j])
            strict = strict_c[s:]
            fail = strict & (margin <= 0.0)
            # Where rhs underflows, both sides may round to 0; the log ratio
            # decides strictness there instead of the margin.
            under = rhs_x < np.finfo(float).tiny
            if np.any(under):
                t = np.nonzero(strict & np.repeat(under, cs))[0]
                if t.size:  # empty at x = 1: rhs is 0 there, but c = -0.0 is not strict
                    fail[t] = _lemma_log_ratio(n, r, X[s + t], C[s + t]) >= 0.0
            if np.any(fail):
                f = np.nonzero(fail)[0]
                jf = int(f[np.argmin(margin[f])])
                if margin[jf] < self.strict[r]:
                    self.strict[r] = margin[jf]
                    self.strict_witness[r] = (X[s + jf], C[s + jf])

    def result(self) -> dict[str, Any]:
        n = self.n
        worst = math.inf
        witness: dict[str, Any] = {}
        strict_witness: dict[str, Any] = {}
        for r in range(n):
            if self.worst[r] < worst:
                worst = float(self.worst[r])
                x, c = self.witness[r]
                witness = {"n": n, "x": float(x), "c": float(c), "r": r}
            if self.strict_witness[r] is not None:  # the last failing r is reported
                x, c = self.strict_witness[r]
                strict_witness = {"n": n, "x": float(x), "c": float(c), "r": r}
        return {
            "n": n,
            "worst": worst,
            "witness": witness,
            "strict_ok": not strict_witness,
            "strict_witness": strict_witness,
            "checked": self.checked,
        }

    @staticmethod
    def report(results: list[dict[str, Any]]) -> VerificationReport:
        """Reduce the per-n results, in n order, to one report."""
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


class _KozniewskaSweep:
    """Per-n state of the truncated-moment and reflection checks
    ("kozniewska"): closed-form truncated first moments against brute-force
    pmf sums at every truncation level r = 0..n-1, plus the left-tail
    reflection identity against F_n^c(1-x), over the (x, c) sweep.

    As in :class:`_LemmaSweep`, each r keeps the first column of its worst
    difference, which reproduces a flat argmax over (r, column)."""

    def __init__(self, n: int, c_samples: int):
        self.n = n
        self.binom_n1 = binomial_row(n - 1)
        self.k_n = np.arange(n + 1, dtype=float)[:, None] / n
        self.worst = np.full(n, -math.inf)
        self.wx = np.zeros(n)
        self.wc = np.zeros(n)
        self.refl = -math.inf
        self.refl_witness = (0.0, 0.0)
        self.checked = 0

    def block(self, xb, rb, X, C, cum_a, cum_b, den) -> None:
        n = self.n
        closed = np.multiply(self.binom_n1[:, None], cum_a[1 : n + 1])
        closed *= cum_b[n:0:-1]
        closed /= den
        # The pmf and the partial sums overwrite cum_a and cum_b, so a lemma
        # check reads the products first.
        probs = _pmf_from_products(cum_a, cum_b, den)
        partial = np.subtract(X[None, :], self.k_n, out=cum_b)
        partial *= probs
        _cumsum_rows(partial)  # partial[r] = sum_{k<=r}
        diff = np.abs(np.subtract(partial[:n], closed, out=closed), out=closed)
        j = np.argmax(diff, axis=1)
        top = diff[np.arange(n), j]
        better = top > self.worst
        self.worst[better] = top[better]
        self.wx[better] = X[j[better]]
        self.wc[better] = C[j[better]]
        self.checked += int(diff.size)

        # Reflection: the tail over {k : x - k/n < -1/sqrt(n)} rewritten
        # through k = n - k' must equal F_n^c(1-x), here from the log-space
        # kernel that the scans run.  The strict threshold is realized by
        # the snapped bracket r' = ]n(1-x) - sqrt(n)[.
        rp = strict_floor_bracket(n * (1.0 - X) - math.sqrt(n))
        active = (1.0 - X > 1.0 / math.sqrt(n)) & (rp >= 0)
        tail = np.zeros_like(X)
        if np.any(active):
            cols = np.nonzero(active)[0]
            rr = np.minimum(rp[cols], n - 1)
            terms = np.subtract((1.0 - X)[None, :], self.k_n, out=partial)
            terms *= probs[::-1]
            _cumsum_rows(terms)  # terms[r] = sum_{k'<=r}
            tail[cols] = terms[rr, cols]
        rdiff = np.abs(tail - f_n_c_curve(n, 1.0 - X, C))
        jr = int(np.argmax(rdiff))
        if rdiff[jr] > self.refl:
            self.refl = float(rdiff[jr])
            self.refl_witness = (X[jr], C[jr])
        self.checked += int(X.size)

    def result(self) -> dict[str, Any]:
        n = self.n
        rj = int(np.argmax(self.worst))
        worst_diff = float(self.worst[rj])
        witness = {
            "check": "truncated-moment",
            "n": n,
            "x": float(self.wx[rj]),
            "c": float(self.wc[rj]),
            "r": rj,
        }
        if self.refl > worst_diff:
            worst_diff = self.refl
            x, c = self.refl_witness
            witness = {"check": "reflection", "n": n, "x": float(x), "c": float(c)}
        return {"n": n, "worst_diff": worst_diff, "witness": witness, "checked": self.checked}

    @staticmethod
    def report(results: list[dict[str, Any]]) -> VerificationReport:
        """Reduce the per-n results, in n order, to one report."""
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


# Run in this order on each block: the Kozniewska check overwrites the
# rising products that the lemma reads.
SWEEPS = {"lemma": _LemmaSweep, "kozniewska": _KozniewskaSweep}


def _verify_sweep_one(args) -> dict[str, dict[str, Any]]:
    """One pass over the (x, c) sweep of one n, in column blocks of whole
    grid points: grid point g carries c_samples columns with c running from
    the boundary value -min{x,1-x}/(n-1) up to 0.  Every requested check
    reads the same rising products."""
    n, grid, c_samples, checks = args
    xs = np.linspace(0.0, 1.0, grid.points)
    fracs = np.linspace(1.0, 0.0, c_samples)
    cmin = CProfile("rn").c_at(xs, n)
    rmax = _rmax(n, xs)
    sweeps = [SWEEPS[name](n, c_samples) for name in checks]
    for g0, g1 in _blocks(xs.size, 8 * (n + 1) * c_samples):
        xb = xs[g0:g1]
        X = np.repeat(xb, c_samples)
        C = (cmin[g0:g1, None] * fracs[None, :]).ravel()
        cum_a, cum_b, den = rising_products(n, X, C)
        for sweep in sweeps:
            sweep.block(xb, rmax[g0:g1], X, C, cum_a, cum_b, den)
    return {name: sweep.result() for name, sweep in zip(checks, sweeps)}


def verify_sweep(
    n_range: Iterable[int],
    checks: Sequence[str] = tuple(SWEEPS),
    grid: GridSpec = GridSpec(points=2001),
    c_samples: int = 21,
    workers: int = 1,
) -> list[VerificationReport]:
    """Run the requested sweep checks ("lemma", "kozniewska") in one pass
    per n that computes the rising products once for all of them; returns
    their reports in that order.  See :class:`_LemmaSweep` and
    :class:`_KozniewskaSweep` for what each checks."""
    if not checks or not set(checks) <= set(SWEEPS):
        raise ValueError(f"checks must be a nonempty subset of {', '.join(SWEEPS)}")
    ns = _parse_n_range(n_range)
    todo = tuple(name for name in SWEEPS if name in checks)
    results = _map_over_n(
        _verify_sweep_one, [(n, grid, c_samples, todo) for n in ns], workers
    )
    return [SWEEPS[name].report([res[name] for res in results]) for name in todo]


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
        return xs, f_n_c_curve(n, xs, CProfile("rn").c_at(xs, n))

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


def _conjecture_one(args) -> dict[str, Any]:
    """Worst c-step of the rising-factorial ratio for one n, in column
    blocks of whole grid points.  A block is laid out c-major: row j of its
    (c_grid_size, points) view holds the j-th c value of every point."""
    n, grid, c_grid_size, c_max = args
    xs = np.linspace(0.0, 1.0, grid.points)
    rmax_x = _rmax(n, xs)
    active = (rmax_x >= 0) & (np.minimum(xs, 1.0 - xs) > 0.0)
    xa = xs[active]
    ra = rmax_x[active]
    fracs = np.linspace(0.0, 1.0, c_grid_size)
    cmin = CProfile("rn").c_at(xa, n)
    steps = np.arange(c_grid_size - 1)
    # Per (r, c-step): the worst difference and its column in xa.  A later
    # block replaces it only when strictly worse, so ties keep the first
    # (r, c-step, column), as one unblocked argmin over them would.
    worst = np.full((n, steps.size), math.inf)
    where = np.zeros((n, steps.size), dtype=int)
    checked = 0
    for g0, g1 in _blocks(xa.size, 8 * (n + 1) * c_grid_size):
        cb = cmin[g0:g1]
        # per-x c grid from the admissibility boundary up to c_max
        C = (cb[None, :] + fracs[:, None] * (c_max - cb[None, :])).ravel()
        X = np.tile(xa[g0:g1], c_grid_size)
        cum_a, cum_b, den = rising_products(n, X, C)
        rb = ra[g0:g1]
        for r in range(int(rb[-1]) + 1):
            g = int(np.searchsorted(rb, r))  # points with rmax >= r: a suffix
            ratio = (cum_a[r + 1] * cum_b[n - r] / den).reshape(c_grid_size, -1)
            diffs = np.diff(ratio[:, g:], axis=0)
            checked += int(diffs.size)
            j = np.argmin(diffs, axis=1)
            low = diffs[steps, j]
            better = low < worst[r]
            worst[r, better] = low[better]
            where[r, better] = g0 + g + j[better]
    result: dict[str, Any] = {"worst": math.inf, "witness": {}, "checked": checked}
    for r in range(n):
        ji = int(np.argmin(worst[r]))
        if worst[r, ji] < result["worst"]:
            col = where[r, ji]
            c_lo, c_hi = cmin[col] + fracs[ji : ji + 2] * (c_max - cmin[col])
            result["worst"] = float(worst[r, ji])
            result["witness"] = {
                "n": n,
                "x": float(xa[col]),
                "r": r,
                "c_lo": float(c_lo),
                "c_hi": float(c_hi),
            }
    return result


def conjecture_scan(
    n_range: Iterable[int],
    grid: GridSpec = GridSpec(points=2001),
    c_grid_size: int = 21,
    c_max: float = 0.2,
    workers: int = 1,
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
    results = _map_over_n(
        _conjecture_one, [(n, grid, c_grid_size, c_max) for n in ns], workers
    )
    worst = math.inf
    witness: dict[str, Any] = {}
    checked = 0
    for res in results:
        checked += res["checked"]
        if res["worst"] < worst:
            worst = res["worst"]
            witness = res["witness"]
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
