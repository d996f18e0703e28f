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

Both quantities are symmetric under x -> 1-x, and :func:`scan_curve`,
the one sampled-sup path, evaluates either on the upper half of a grid
closed under that reflection and mirrors it.  :func:`n6_case_check` reads
the n = 6 case bounds off the same grid, and :func:`verify_sweep` runs
three sweep checks over n: the rising-factorial inequality underlying the
c <= 0 comparison ("lemma"), the closed form against brute-force pmf sums
("kozniewska"), and the open monotonicity-in-c conjecture ("conjecture").
Each check declares its point-major layout of (x, c) cells, and one per-n
engine, :func:`_sweep_n`, runs every check of a layout in one loop over
blocks of cells, with one witness rule, :func:`_first_min`, under which
the first cell of an extreme value wins.

F_n^c jumps at the breakpoints x = 1/sqrt(n) + k/n where r(x) changes, and
S_n^c at x = k/n +- m/sqrt(n) where a bracket changes, so sup scans refine
the grid one-sided around every jump of the scanned quantity.
"""

from __future__ import annotations

import math
import os
from functools import partial
from typing import Any, Iterable, Sequence

import numpy as np

from .numeric_core import binomial_row, strict_floor_bracket
from .operators import CProfile
from .polya import (
    PolyaParams,
    _accumulate_rows,
    _pmf_from_products,
    log_rising,
    pmf_matrix,
    rising_products,
    truncated_first_moment,
    validate,
    validate_sweep,
)
from .reports import (BREAKPOINT_OFFSET, GridSpec, ScanReport, VerificationReport, _check_cells,
                      _parse_n_range, _RefinedGrid)

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
]

LEMMA_TOL = 1e-13
IDENTITY_TOL = 1e-12
STRICT_C_CUTOFF = -1e-10
# The one memory budget of every blocked kernel, in bytes: bracket_curve
# and the verifier sweeps cut their (n+1)-row arrays into column blocks of
# at most this much per array, and f_n_c_curve does all its per-point work
# in chunks of about this much, so memory stays flat in the grid size.  The
# verifier sweeps reuse one set of block buffers per n.  2 MiB blocks
# peaked 7 MiB higher in the same time.  Each column is computed on its
# own, so blocking changes no output bit.
BLOCK_BYTES = 1 << 20


def breakpoints(n: int) -> list[float]:
    """Jump locations of r(x) = ]n x - sqrt(n)[ inside (0, 1), ascending."""
    pts = 1.0 / math.sqrt(n) + np.arange(n) / n
    return pts[pts < 1.0].tolist()


def bracket_jumps(n: int) -> list[float]:
    """Jump locations x = k/n +- m/sqrt(n) (m >= 1) of the brackets
    ]sqrt(n) |x - k/n|[ inside (0, 1), sorted."""
    k = (np.arange(n + 1) / n)[:, None]
    m = np.arange(1, math.isqrt(n) + 1) / math.sqrt(n)
    pts = np.concatenate([k - m, k + m], axis=None)
    return np.unique(pts[(pts > 0.0) & (pts < 1.0)]).tolist()


def _truncation_index(n: int, x):
    """F_n^c's truncation index r = ]n x - sqrt(n)[ clipped to -1..n-1, -1
    being where F_n^c is 0: an int for a float x, integers shaped like x for
    an array.  For x <= 1/sqrt(n), n x - sqrt(n) is at most a few ulps above
    0, which the strict floor snaps, so no x needs a branch of its own."""
    r = strict_floor_bracket(n * x - math.sqrt(n))
    return max(-1, min(r, n - 1)) if isinstance(r, int) else np.clip(r, -1, n - 1)


def f_n_c(n: int, x: float, c: float) -> float:
    """The truncated-first-moment function F_n^c at a single point: the
    Kozniewska closed form of
    :func:`~polya_bernstein.polya.truncated_first_moment` at r(x), or 0."""
    if n <= 1:
        raise ValueError(f"F_n^c requires n > 1, got {n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x}")
    params = PolyaParams(n, x, 1.0 - x, c)
    r = _truncation_index(n, x)
    if r >= 0:
        return truncated_first_moment(params, r)
    validate(params)
    return 0.0


def f_n_c_curve(n: int, xs: np.ndarray, cs) -> np.ndarray:
    """Vectorized F_n^c over a grid, O(1) work per point: the log-binomial
    comes from a table and the three rising factorials from
    :func:`~polya_bernstein.polya.log_rising`, in one loop over chunks of
    points under BLOCK_BYTES, so only the output is as large as the grid.
    Agrees with :func:`f_n_c` to relative error ~1e-13 for n <= 400 and
    c <= 1/(n-1), growing to ~eps |log 1^(n,c)| for n c >> 1.
    A factor vanishing at the admissibility boundary gives an exact 0."""
    if n <= 1:
        raise ValueError(f"F_n^c requires n > 1, got {n}")
    xs = np.asarray(xs, dtype=float)
    cs = np.broadcast_to(np.asarray(cs, dtype=float), xs.shape)
    validate_sweep(n, xs, cs)
    log_binom = binomial_row(n - 1, log=True)
    out = np.zeros(xs.shape)  # C order, so its flat view writes into it
    flat_x, flat_c, flat_out = xs.reshape(-1), cs.reshape(-1), out.reshape(-1)
    # the log-space temporaries take about 200 bytes per point
    for s, e in _blocks(flat_x.size, 256):
        r = _truncation_index(n, flat_x[s:e])
        active = r >= 0
        x, c, r = flat_x[s:e][active], flat_c[s:e][active], r[active]
        flat_out[s:e][active] = np.exp(
            log_binom[r]
            + log_rising(x, r + 1, c)
            + log_rising(1.0 - x, n - r, c)
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


_PROFILES = {"zero": CProfile("zero"), "rn": CProfile("rn")}


def _profile(c_mode: str) -> CProfile:
    """The replacement profile of a scan's c-mode, "zero" or "rn"."""
    if c_mode not in ("zero", "rn"):
        raise ValueError(f"unknown c-mode {c_mode!r}; use 'zero' or 'rn'")
    return _PROFILES[c_mode]


def _sym_scan_grid(n: int, grid: GridSpec, jumps: Sequence[float]) -> np.ndarray:
    """Scan grid on [0,1], exactly closed under x -> 1-x.

    The upper half [1/2, 1], where 1-x is exact in floating point, holds
    the base points >= 1/2 and every jump of the scanned quantity folded
    into it, refined one-sided BREAKPOINT_OFFSET inside each half-open
    piece; the lower half is its mirror, so every grid point's reflection
    is itself a grid point bit-for-bit.  Without jumps the grid has
    grid.points points.
    """
    base = np.linspace(0.0, 1.0, grid.points)
    extra = np.add.outer(jumps, (-BREAKPOINT_OFFSET, 0.0, BREAKPOINT_OFFSET)).ravel()
    extra = extra[(extra >= 0.0) & (extra <= 1.0)]
    folded = np.where(extra >= 0.5, extra, 1.0 - extra)
    upper = np.unique(np.concatenate([base[base >= 0.5], folded]))
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
    refined one-sided at the quantity's jumps.

    Both quantities are symmetric under x -> 1-x, on a grid closed under it
    bit for bit: c(x) = c(1-x), so p_k(1-x) = p_{n-k}(x), the strict floor
    takes the lower value at a jump on both sides, and F(x) + F(1-x) is a
    commutative sum.  So the upper half is evaluated and mirrored.
    """
    if bound not in BOUNDS:
        raise ValueError(f"unknown bound {bound!r}; use one of {', '.join(BOUNDS)}")
    # Looked up per call, so a module attribute replaced at run time (a
    # tracing wrapper) is the one called.
    jumps, curve = ((bracket_jumps, bracket_curve) if bound == "bracket"
                    else (breakpoints, sikkema_curve))
    xs = _sym_scan_grid(n, grid, jumps(n))
    h = xs.size // 2
    upper = curve(n, xs[h:], c_mode)
    return xs, np.concatenate([upper[::-1][:h], upper])


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_over_n(fn, ns: Sequence[int], workers: int = 1):
    """fn(n) for each n, as a lazy stream in n order: nothing runs until the
    first result is drawn.  The pool is capped at one process per CPU and
    per n, and hands its results over in the chunks pool.map would use."""
    workers = min(workers, _cpu_count(), len(ns))
    if workers < 2:
        yield from map(fn, ns)
        return
    import multiprocessing  # only here: a serial run does without it

    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap(fn, ns, math.ceil(len(ns) / (4 * workers)))


def scan_sup(
    n_range: Iterable[int],
    c_mode: str = "zero",
    grid: GridSpec = GridSpec(),
    workers: int = 1,
    bound: str | None = None,
    curves_csv: str | None = None,
) -> ScanReport:
    """Per-n and global sup of a Sikkema-style quantity.

    bound selects the quantity: "bracket" is Sikkema's bracket sum S_n^c,
    "majorant" is 1 + sqrt(n) (F_n^c(x) + F_n^c(1-x)).  The default follows
    the profile: the bracket sum for c_mode "zero", whose sup is Sikkema's
    constant, and the majorant for c_mode "rn", the paper's bound for the
    urn operator.  The report records it as ``meta["bound"]``.

    Each n's :func:`scan_curve` is computed once, and the stream of curves
    goes to :meth:`ScanReport.from_curves` and, if given, to curves_csv.
    """
    ns = _parse_n_range(n_range)
    if grid.points < 1000:
        raise ValueError(f"sup scans need >= 1000 grid points, got {grid.points}")
    _profile(c_mode)  # validate mode early
    if bound is None:
        bound = "bracket" if c_mode == "zero" else "majorant"
    elif bound not in BOUNDS:
        raise ValueError(f"unknown bound {bound!r}; use one of {', '.join(BOUNDS)}")
    curves = _map_over_n(partial(scan_curve, c_mode=c_mode, grid=grid, bound=bound), ns, workers)
    meta = {"c_mode": c_mode, "n_range": [ns[0], ns[-1]], "bound": bound}
    return ScanReport.from_curves(zip(ns, curves), _RefinedGrid(grid.points), meta, curves_csv)


def _rmax(n: int, xs: np.ndarray) -> np.ndarray:
    """Largest integer r <= n x - sqrt(n), capped at n - 1; negative where no
    r qualifies.  The non-strict floor of :func:`_truncation_index`'s rule,
    floor(a) = -]-a[ - 1, so a within the strict floor's snap of an integer
    counts as that integer."""
    return np.minimum(-strict_floor_bracket(math.sqrt(n) - n * xs) - 1, n - 1)


def _lemma_log_ratio(n: int, r: int, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """log of lhs / rhs in the lemma inequality, from the log-space kernel:
    < 0 where the inequality is strict, -inf where a factor vanishes."""
    return (
        log_rising(x, r + 1, c)
        + log_rising(1.0 - x, n - r, c)
        - log_rising(1.0, n, c)
        - ((r + 1) * np.log(x) + (n - r) * np.log1p(-x))
    )


def _first_min(worst: np.ndarray, where: np.ndarray, values: np.ndarray, cells) -> None:
    """For each slot (row of values), keep the smallest value seen so far in
    worst and its cell in where; cells broadcasts against values.  A value
    replaces the kept one only when strictly smaller, so ties keep the
    first cell, and updates block by block in cell order pick what one
    argmin over all cells would."""
    j = np.argmin(values, axis=1)
    low = values[np.arange(j.size), j]
    better = np.flatnonzero(low < worst)
    if better.size:
        worst[better] = low[better]
        where[better] = np.broadcast_to(cells, values.shape)[better, j[better]]


def _sweep_n(n: int, xs: np.ndarray, cgrid: np.ndarray, sweeps: list) -> list[dict[str, Any]]:
    """One pass of the verifier sweeps over the (x, c) cells of one n: cell
    g*cs + j holds x = xs[g] and c = cgrid[g, j].  Each block of whole grid
    points has its rising products computed once, for every sweep in list
    order; the sweeps read their witness cells back from X and C.

    The products of every block go into three flat buffers sized once for
    the widest block.  The third held the factors of 1^(n,c) and is handed
    to the sweeps as spare, an (n, block cells) scratch array."""
    cs = cgrid.shape[1]
    X = np.repeat(xs, cs)
    C = cgrid.ravel()
    rmax = _rmax(n, xs)
    blocks = list(_blocks(xs.size, 8 * (n + 1) * cs))
    width = max((g1 - g0 for g0, g1 in blocks), default=0) * cs
    bufs = (np.empty((n + 1) * width), np.empty((n + 1) * width), np.empty(n * width))
    for g0, g1 in blocks:
        s0, s1 = g0 * cs, g1 * cs
        products = rising_products(n, X[s0:s1], C[s0:s1], out=bufs)
        spare = bufs[2][: n * (s1 - s0)].reshape(n, s1 - s0)
        cells = np.arange(s0, s1)
        for sweep in sweeps:
            sweep.block(cells, xs[g0:g1], rmax[g0:g1], X[s0:s1], C[s0:s1], *products, spare)
    return [sweep.result(X, C) for sweep in sweeps]


class _Sweep:
    """Per-n state of a verifier check: per slot, the smallest value seen in
    worst and its cell in where, kept by :func:`_first_min`."""

    def __init__(self, n: int, cs: int, slots):
        self.n, self.cs, self.checked = n, cs, 0
        self.worst = np.full(slots, math.inf)
        self.where = np.zeros(slots, dtype=int)

    @staticmethod
    def cells(n: int, xs: np.ndarray, c_samples: int) -> tuple[np.ndarray, np.ndarray]:
        """The check's (x, c) layout for :func:`_sweep_n`: every grid point
        x carries c_samples values of c running from the boundary value
        -min{x,1-x}/(n-1) up to 0."""
        return xs, CProfile("rn").c_at(xs, n)[:, None] * np.linspace(1.0, 0.0, c_samples)

    def witness(self, X: np.ndarray, C: np.ndarray, slot, **extra) -> dict[str, Any]:
        cell = self.where[slot]
        return {"n": self.n, "x": float(X[cell]), "c": float(C[cell]), **extra}


class _LemmaSweep(_Sweep):
    """Per-n state of the rising-factorial inequality check ("lemma"):
    x^(r+1,c)(1-x)^(n-r,c)/1^(n,c) <= x^(r+1) (1-x)^(n-r) over grid x,
    integer 0 <= r <= n x - sqrt(n), and c_samples values spanning
    [-min{x,1-x}/(n-1), 0].

    Strict inequality is additionally demanded for c < -1e-10 (at c ~ 0 the
    margin is rounding noise and only the non-strict form is asserted).
    Where the right side underflows below the smallest normal float, the
    two sides are compared through their logs.

    Slot (r, 0) keeps the worst margin of r, slot (r, 1) its worst failing
    strict margin."""

    def __init__(self, n: int, c_samples: int):
        super().__init__(n, c_samples, (n, 2))

    def block(self, cells, xb, rb, X, C, cum_a, cum_b, den, spare) -> None:
        n, cs = self.n, self.cs
        rows = int(rb[-1]) + 1
        if rows <= 0:
            return
        # Row r holds x^(r+1) (1-x)^(n-r) per grid point, one 1-D power call
        # per r as numpy's float64 power kernel depends on the shape; +inf
        # where r > rmax(x), which x nondecreasing makes a prefix of the row.
        rhs = np.full((rows, xb.size), math.inf)
        for r in range(rows):
            g = int(np.searchsorted(rb, r))
            rhs[r, g:] = xb[g:] ** (r + 1) * (1.0 - xb[g:]) ** (n - r)
            self.checked += (xb.size - g) * cs
        lhs = np.multiply(cum_a[1 : rows + 1], cum_b[n : n - rows : -1], out=spare[:rows])
        lhs /= den
        margin = np.subtract(rhs[:, :, None], lhs.reshape(rows, xb.size, cs),
                             out=lhs.reshape(rows, xb.size, cs)).reshape(rows, -1)
        _first_min(self.worst[:rows, 0], self.where[:rows, 0], margin, cells)
        strict = C < STRICT_C_CUTOFF
        fail = (margin <= 0.0) & strict
        # Where rhs underflows, both sides may round to 0; the log ratio
        # decides strictness there instead of the margin.  At x = 1 rhs is
        # exactly 0, its log is -inf, and the margin decides.
        under = (rhs < np.finfo(float).tiny) & (xb < 1.0)
        for r in np.flatnonzero(fail.any(axis=1) | under.any(axis=1)).tolist():
            if under[r].any():
                t = np.flatnonzero(strict & np.repeat(under[r], cs))
                fail[r, t] = _lemma_log_ratio(n, r, X[t], C[t]) >= 0.0
            f = np.flatnonzero(fail[r])
            if f.size:
                _first_min(self.worst[r, 1:], self.where[r, 1:], margin[r, f][None], cells[f])

    def result(self, X: np.ndarray, C: np.ndarray) -> dict[str, Any]:
        r, s = np.argmin(self.worst, axis=0).tolist()  # first r of each kind's smallest margin
        worst, strict = float(self.worst[r, 0]), float(self.worst[s, 1])
        return {
            "worst": worst,
            "witness": self.witness(X, C, (r, 0), r=r) if worst < math.inf else {},
            "strict_worst": strict,
            "strict_witness": self.witness(X, C, (s, 1), r=s) if strict < math.inf else {},
            "checked": self.checked,
        }

    @staticmethod
    def report(results: list[dict[str, Any]]) -> VerificationReport:
        """Reduce the per-n results, in n order, to one report: the first
        smallest margin and the first smallest failing strict margin."""
        best = min(results, key=lambda res: res["worst"])
        strict_witness = min(results, key=lambda res: res["strict_worst"])["strict_witness"]
        strict_ok = not strict_witness
        return VerificationReport(
            claim_id="rising-factorial-inequality",
            passed=best["worst"] >= -LEMMA_TOL and strict_ok,
            worst_margin=best["worst"],
            witness=best["witness"],
            samples_checked=sum(res["checked"] for res in results),
            tolerance=LEMMA_TOL,
            details={"strict_ok": strict_ok, "strict_witness": strict_witness},
        )


class _KozniewskaSweep(_Sweep):
    """Per-n state of the truncated-moment and reflection checks
    ("kozniewska"): closed-form truncated first moments against brute-force
    pmf sums at every truncation level r = 0..n-1, plus the left-tail
    reflection identity against F_n^c(1-x), over the (x, c) sweep.

    Slot r < n keeps the negated worst difference of level r, slot n that
    of the reflection, so the first cell of the largest difference wins."""

    def __init__(self, n: int, c_samples: int):
        super().__init__(n, c_samples, n + 1)
        self.binom_n1 = binomial_row(n - 1)
        self.k_n = np.arange(n + 1, dtype=float)[:, None] / n

    def block(self, cells, xb, rb, X, C, cum_a, cum_b, den, spare) -> None:
        n, cs = self.n, self.cs
        closed = np.multiply(self.binom_n1[:, None], cum_a[1 : n + 1], out=spare)
        closed *= cum_b[n:0:-1]
        closed /= den
        # The pmf and the partial sums overwrite cum_a and cum_b, so a lemma
        # check reads the products first.
        probs = _pmf_from_products(cum_a, cum_b, den)
        partial = np.subtract(X[None, :], self.k_n, out=cum_b)
        partial *= probs
        _accumulate_rows(np.add, partial)  # partial[r] = sum_{k<=r}
        diff = np.abs(np.subtract(partial[:n], closed, out=closed), out=closed)
        _first_min(self.worst[:n], self.where[:n], np.negative(diff, out=diff), cells)
        self.checked += int(diff.size)

        # Reflection: the tail over {k : x - k/n < -1/sqrt(n)} rewritten
        # through k = n - k' must equal F_n^c(1-x), here from the log-space
        # kernel that the scans run.  The strict threshold is realized by
        # F_n^c's truncation index r' at 1 - x, taken per grid point.  x is
        # nondecreasing, so r' is nonincreasing: the active cells are a
        # prefix of the block, and its first cell has the largest r'.
        rp = _truncation_index(n, 1.0 - xb)
        rr = np.repeat(rp[rp >= 0], cs)
        tail = np.zeros_like(X)
        if rr.size:
            a, top = rr.size, int(rr[0]) + 1
            terms = np.subtract((1.0 - X[:a])[None, :], self.k_n[:top], out=partial[:top, :a])
            terms *= probs[::-1][:top, :a]
            _accumulate_rows(np.add, terms)  # terms[r] = sum_{k'<=r}
            tail[:a] = terms[rr, np.arange(a)]
            # F_n^c(1-x) is 0 off the active prefix, as the tail is
            tail[:a] -= f_n_c_curve(n, 1.0 - X[:a], C[:a])
        rdiff = np.abs(tail, out=tail)
        _first_min(self.worst[n:], self.where[n:], -rdiff[None], cells)
        self.checked += int(X.size)

    def result(self, X: np.ndarray, C: np.ndarray) -> dict[str, Any]:
        r = int(np.argmin(self.worst))  # a tie keeps the truncated moment over the reflection
        witness = (self.witness(X, C, r, check="truncated-moment", r=r) if r < self.n
                   else self.witness(X, C, r, check="reflection"))
        return {"worst_diff": -float(self.worst[r]), "witness": witness, "checked": self.checked}

    @staticmethod
    def report(results: list[dict[str, Any]]) -> VerificationReport:
        """Reduce the per-n results, in n order, to one report: the first
        largest difference."""
        best = max(results, key=lambda res: res["worst_diff"])
        return VerificationReport(
            claim_id="kozniewska-identity",
            passed=best["worst_diff"] <= IDENTITY_TOL,
            worst_margin=-best["worst_diff"],
            witness=best["witness"],
            samples_checked=sum(res["checked"] for res in results),
            tolerance=IDENTITY_TOL,
            details={"worst_abs_diff": best["worst_diff"]},
        )


# The upper end of the conjecture's c range.
CONJECTURE_C_MAX = 0.2


class _ConjectureSweep(_Sweep):
    """Per-n state of the monotonicity-in-c exploration ("conjecture"): the
    steps of the rising-factorial ratio x^(r+1,c)(1-x)^(n-r,c)/1^(n,c)
    between neighbouring c of each grid point, for every integer
    0 <= r <= n x - sqrt(n).

    Slot (r, k) keeps the most negative step from c grid entry k to k + 1,
    at the cell of its lower c."""

    def __init__(self, n: int, c_samples: int):
        if c_samples < 2:
            raise ValueError(f"c grid needs >= 2 points, got {c_samples}")
        super().__init__(n, c_samples, (n, c_samples - 1))

    @staticmethod
    def cells(n: int, xs: np.ndarray, c_samples: int) -> tuple[np.ndarray, np.ndarray]:
        """The grid points 0 < x < 1 with some r <= n x - sqrt(n), each
        carrying c_samples values of c from the admissibility boundary
        -min{x,1-x}/(n-1) up to CONJECTURE_C_MAX."""
        xa = xs[(_rmax(n, xs) >= 0) & (np.minimum(xs, 1.0 - xs) > 0.0)]
        cmin = CProfile("rn").c_at(xa, n)[:, None]
        return xa, cmin + np.linspace(0.0, 1.0, c_samples) * (CONJECTURE_C_MAX - cmin)

    def block(self, cells, xb, rb, X, C, cum_a, cum_b, den, spare) -> None:
        n, cs = self.n, self.cs
        for r in range(int(rb[-1]) + 1):
            s = int(np.searchsorted(rb, r)) * cs  # points with rmax >= r: a suffix
            ratio = (cum_a[r + 1, s:] * cum_b[n - r, s:] / den[s:]).reshape(-1, cs).T
            # row k: the steps from c entry k to k + 1 of every point, in cell order
            steps = np.subtract(ratio[1:], ratio[:-1], order="C")
            self.checked += int(steps.size)
            _first_min(self.worst[r], self.where[r], steps, cells[s:].reshape(-1, cs)[:, :-1].T)

    def result(self, X: np.ndarray, C: np.ndarray) -> dict[str, Any]:
        r, k = np.unravel_index(np.argmin(self.worst), self.worst.shape)
        worst = float(self.worst[r, k])
        witness = {}
        if worst < math.inf:
            cell = self.where[r, k]
            witness = {"n": self.n, "x": float(X[cell]), "r": int(r),
                       "c_lo": float(C[cell]), "c_hi": float(C[cell + 1])}
        return {"n": self.n, "worst": worst, "witness": witness, "checked": self.checked}

    @staticmethod
    def report(results: list[dict[str, Any]]) -> VerificationReport:
        """Reduce the per-n results, in n order, to one report: the first
        most negative step.  A monotonicity violation is surfaced as a
        witness (``finding``), not a failure; the conjecture is open.  A
        sweep that checks no cell is rejected."""
        checked = sum(res["checked"] for res in results)
        if not checked:
            raise ValueError(
                f"the conjecture sweep checks no cell for n in {results[0]['n']}..{results[-1]['n']}: "
                "no grid point 0 < x < 1 has r <= n x - sqrt(n); raise --points")
        best = min(results, key=lambda res: res["worst"])
        monotone = best["worst"] >= -LEMMA_TOL
        return VerificationReport(
            claim_id="monotone-in-c-conjecture",
            passed=monotone,
            worst_margin=best["worst"],
            witness=best["witness"],
            samples_checked=checked,
            tolerance=LEMMA_TOL,
            finding=not monotone,
            details={"c_max": CONJECTURE_C_MAX},
        )


# Run in this order on each block: the Kozniewska check overwrites the
# rising products that the lemma reads.  The conjecture has its own cell
# layout, so it gets its own engine pass.
SWEEPS = {"lemma": _LemmaSweep, "kozniewska": _KozniewskaSweep, "conjecture": _ConjectureSweep}


def _verify_sweep_one(checks, grid: GridSpec, c_samples: int, n: int) -> dict[str, dict[str, Any]]:
    """The requested checks of one n: one engine pass per distinct cell
    layout, shared by every check that declares it."""
    xs = np.linspace(0.0, 1.0, grid.points)
    sweeps = {name: SWEEPS[name](n, c_samples) for name in checks}
    results = {}
    for cells in dict.fromkeys(SWEEPS[name].cells for name in checks):
        group = [name for name in checks if SWEEPS[name].cells is cells]
        passes = _sweep_n(n, *cells(n, xs, c_samples), [sweeps[name] for name in group])
        results.update(zip(group, passes))
    return results


def verify_sweep(
    n_range: Iterable[int],
    checks: Sequence[str],
    grid: GridSpec = GridSpec(points=2001),
    c_samples: int = 21,
    workers: int = 1,
) -> list[VerificationReport]:
    """Run the requested sweep checks ("lemma", "kozniewska",
    "conjecture") over n in 2..N_MAX, one engine pass per n and cell
    layout, in one worker pool; returns their reports in that order.  The
    lemma and Kozniewska checks share a layout, so their rising products
    are computed once.  See :class:`_LemmaSweep`,
    :class:`_KozniewskaSweep` and :class:`_ConjectureSweep` for what each
    checks."""
    if not checks or not set(checks) <= set(SWEEPS):
        raise ValueError(f"checks must be a nonempty subset of {', '.join(SWEEPS)}")
    ns = _parse_n_range(n_range)
    _check_cells(grid.points * c_samples, "a verifier sweep")
    todo = tuple(name for name in SWEEPS if name in checks)
    results = list(_map_over_n(partial(_verify_sweep_one, todo, grid, c_samples), ns, workers))
    return [SWEEPS[name].report([res[name] for res in results]) for name in todo]


N6_INTERVAL_BOUND = 0.0072168      # interval (1/sqrt(6), 1/2]
N6_GLOBAL_BOUND = 0.014271         # sup of F_6^{c(x)} over [0,1]
N6_SIKKEMA_BOUND = 1.0699134       # sup of 1 + sqrt(6)(F(x) + F(1-x))
N6_BOUND_TOL = 1e-6                # the printed constants carry ~5 digits
N6_ZERO_TOL = 1e-14
# Base points of the n = 6 scan grid.
N6_GRID_POINTS = 200005


def n6_case_check() -> VerificationReport:
    """Reproduce the n = 6 case bounds from the F_6^c definition.

    With the boundary profile c(x) = -min{x,1-x}/5, checks on the majorant
    scan grid (refined one-sided at the jumps of F_6^c):
      (i)   sup over (1/sqrt(6), 1/2]           <= 0.0072168
      (ii)  F vanishes on (1/2, 1/sqrt(6)+1/6]  (to rounding noise)
      (iii) global sup over [0,1]               <= 0.014271 + 1e-6
      (iv)  sup of 1 + sqrt(6)(F(x)+F(1-x))     <= 1.0699134 + 1e-6
    """
    n = 6
    s = 1.0 / math.sqrt(6.0)
    xs, vals = scan_curve(n, "rn", GridSpec(points=N6_GRID_POINTS), "majorant")
    f = f_n_c_curve(n, xs, CProfile("rn").c_at(xs, n))
    sup_i = float(f[(xs > s) & (xs <= 0.5)].max())
    sup_ii = float(np.abs(f[(xs > 0.5) & (xs <= s + 1.0 / 6.0)]).max())
    checks = {
        "interval_sup": {"value": sup_i, "bound": N6_INTERVAL_BOUND},
        "vanishing_piece_sup": {"value": sup_ii, "bound": N6_ZERO_TOL},
        "global_sup": {"value": float(f.max()), "bound": N6_GLOBAL_BOUND + N6_BOUND_TOL},
        "sikkema_sup": {"value": float(vals.max()), "bound": N6_SIKKEMA_BOUND + N6_BOUND_TOL},
    }
    margins = {name: c["bound"] - c["value"] for name, c in checks.items()}
    worst_name = min(margins, key=margins.get)
    passed = all(m >= 0.0 for m in margins.values())
    return VerificationReport(
        claim_id="n6-case",
        passed=passed,
        worst_margin=margins[worst_name],
        witness={"check": worst_name},
        samples_checked=2 * xs.size,
        tolerance=0.0,
        details=checks,
    )
