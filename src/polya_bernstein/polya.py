"""Polya-Eggenberger urn distribution: validation, pmf, moments, and
truncated first moments (Kozniewska closed form plus a brute-force twin),
with the rising factorial x^(k,c) = x (x+c) ... (x+(k-1)c) both in log
space (:func:`log_rising`) and as cumulative products
(:func:`rising_products`).

The pmf has one arithmetic: :func:`pmf_matrix` builds a sweep's columns
from the cumulative products, and :func:`_pmf_column` one column with the
same bits but no sweep's array checks, for the point queries.  Both end in
:func:`_checked_pmf`: finite, sum 1, and no entry below -2 BOUNDARY_SLACK,
as an admitted p_0 or p_n dips at most about the slack below 0.  Only
:func:`validate` and :func:`validate_sweep` decide admissibility, by one rule.

Parameters (n, a, b, c) describe n draws from an urn with initial white
weight a, black weight b, and replacement increment c; c = 0 is binomial,
c < 0 removes weight after each draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric_core import BOUNDARY_SLACK, binomial_row, factorial_ratio

__all__ = [
    "AdmissibilityError",
    "PolyaParams",
    "validate",
    "validate_sweep",
    "pmf",
    "pmf_matrix",
    "log_rising",
    "rising_products",
    "moments",
    "truncated_first_moment",
]

_SUM_TOL = 1e-12
# One factor of p_0 or p_n, min{x,1-x} + (n-1)c, may be as low as -slack, and
# the entry then as low as -slack/(1 - 2 slack); every other entry is >= 0.
_NEG_TOL = 2 * BOUNDARY_SLACK

# log_rising sums Stirling's series from this base u = x/|c| upward and
# takes the (at most _STIRLING_MIN + 1) factors below it one by one.
_STIRLING_MIN = 12.0
# B_2m / (2m (2m-1)) for m = 1..6; the first omitted term, z^-13 / 156, is
# below 1e-16 for z >= _STIRLING_MIN.
_STIRLING_COEF = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


class AdmissibilityError(ValueError):
    """Raised when (n, a, b, c) violate the urn admissibility hypothesis."""


@dataclass(frozen=True)
class PolyaParams:
    """Parameters (n, a, b, c) of the Polya-Eggenberger distribution."""

    n: int
    a: float
    b: float
    c: float


def validate(params: PolyaParams) -> None:
    """Accept iff a,b >= 0, a+b > 0, (n-1)c is finite and min{a,b} + (n-1)c
    >= -BOUNDARY_SLACK, the rule :func:`validate_sweep` applies per column.

    Rounding is monotone, so the float sum with the smaller weight is the
    smaller sum.  The slack admits the boundary, where the variance-minimizing
    profile lives; a rejection names the smaller weight.  A c so large that
    (n-1)c overflows would turn the rising factorials into inf / inf.
    """
    n, a, b, c = params.n, params.a, params.b, params.c
    if n < 1:
        raise AdmissibilityError(f"n must be a positive integer, got {n}")
    if not (a >= 0 and b >= 0):  # NaN fails
        raise AdmissibilityError(f"initial weights must be nonnegative, got a={a}, b={b}")
    if a + b <= 0:
        raise AdmissibilityError(f"a + b must be positive, got {a + b}")
    nc = (n - 1) * c
    if not math.isfinite(nc):
        raise AdmissibilityError(f"(n-1)c = {nc} is not finite for n={n}, c={c}")
    name, w = ("a", a) if a <= b else ("b", b)
    if w + nc < -BOUNDARY_SLACK:
        raise AdmissibilityError(
            f"{name} + (n-1)c = {w + nc} < 0 (slack {-BOUNDARY_SLACK}) for {name}={w}, n={n}, c={c}"
        )


def validate_sweep(n: int, x: np.ndarray, c: np.ndarray) -> None:
    """:func:`validate` for every column of the family (n, x, 1-x, c)."""
    if n < 1:
        raise AdmissibilityError(f"n must be a positive integer, got {n}")
    _check_unit_interval(x)
    # Rounding is monotone, so every (n-1)c is finite iff (n-1) max|c| is;
    # taken in Python floats, an overflow is an inf and not a warning.
    if not math.isfinite((n - 1) * float(np.abs(c).max(initial=0.0))):
        raise AdmissibilityError(f"(n-1)c is not finite somewhere in the sweep, n={n}")
    lhs = np.minimum(x, 1.0 - x)
    lhs += (n - 1) * c
    if lhs.min(initial=0.0) < -BOUNDARY_SLACK:
        raise AdmissibilityError(f"min{{x,1-x}} + (n-1)c = {lhs.min()} < 0 somewhere in the sweep")


def pmf(params: PolyaParams) -> np.ndarray:
    """Probability mass function, entries k = 0..n.

    Entry k is C(n,k) * a^(k,c) * b^(n-k,c) / (a+b)^(n,c).  Parameters are
    normalized to a+b = 1 (the pmf is homogeneous of degree 0): the result is
    the :func:`pmf_matrix` column at x = a, c, built by :func:`_pmf_column`
    and admitted by :func:`validate` in those normalized units.  A sum a+b
    that is not > 0 has a negative, NaN or all-zero weight, and is refused
    as given.
    """
    n, a, b, c = params.n, params.a, params.b, params.c
    total = a + b
    validate(PolyaParams(n, a / total, b / total, c / total) if total > 0.0 else params)
    return _pmf_column(n, a / total, c / total)[:, 0]


def rising_products(n: int, x: np.ndarray, c: np.ndarray, scaled: bool = False, out=None):
    """Rising factorials of the family (n, x, 1-x, c) as cumulative products.

    x and c are 1-D arrays of equal length M.  Returns (cum_a, cum_b, den)
    with cum_a[k] = x^(k,c) and cum_b[m] = (1-x)^(m,c), both shaped
    (n+1, M), and den = 1^(n,c) shaped (M,).  Each product is accumulated
    in place, factor by factor; this is the reference route that the
    log-space :func:`log_rising` is checked against.

    scaled=True divides every factor of a column with c > 0 by one power of
    two near the geometric mean of its 1 + ic.  A pmf entry, n factors over
    n, keeps every bit, and the products stay in the float range at large
    n c (1^(200,0.5) is about 1e317).

    out, if given, is three flat float arrays of at least (n+1) M entries
    each; cum_a, cum_b and the factors of 1^(n,c) are written into their
    leading entries instead of fresh arrays, with the same bits.  The
    factors are dead once den is formed, so the third array is free again
    on return.
    """
    validate_sweep(n, x, c)
    m = x.size
    if out is None:
        cum_a, cum_b, ic = np.empty((n + 1, m)), np.empty((n + 1, m)), np.empty((n, m))
    else:
        cum_a, cum_b = (buf[: (n + 1) * m].reshape(n + 1, m) for buf in out[:2])
        ic = out[2][: n * m].reshape(n, m)
    np.multiply(np.arange(n, dtype=float)[:, None], c[None, :], out=ic)
    cum_a[0] = cum_b[0] = 1.0
    np.add(x[None, :], ic, out=cum_a[1:])          # factor i of x^(k,c)
    np.add((1.0 - x)[None, :], ic, out=cum_b[1:])  # factor i of (1-x)^(m,c)
    # >= 1/2 - slack: validate_sweep admits fl((n-1)c), the least i*c
    fd = np.add(1.0, ic, out=ic)                   # factor i of 1^(n,c)
    if scaled and (c > 0.0).any():
        scale = np.where(c > 0.0, np.exp2(-np.rint(np.log2(fd).mean(axis=0))), 1.0)
        cum_a[1:] *= scale
        cum_b[1:] *= scale
        fd *= scale
    den = fd.prod(axis=0)
    _accumulate_rows(np.multiply, cum_a)
    _accumulate_rows(np.multiply, cum_b)
    return cum_a, cum_b, den


def _accumulate_rows(ufunc: np.ufunc, a: np.ndarray) -> None:
    """ufunc.accumulate(a, axis=0, out=a) with the same operations in the
    same order, as one contiguous call per row: a sweep is hundreds to
    thousands of columns wide, which one call would stride across."""
    for i in range(1, a.shape[0]):
        ufunc(a[i - 1], a[i], out=a[i])


def _pmf_from_products(cum_a: np.ndarray, cum_b: np.ndarray, den: np.ndarray) -> np.ndarray:
    """C(n,k) x^(k,c) (1-x)^(n-k,c) / 1^(n,c) from the :func:`rising_products`
    of a family, written over cum_a and returned unclipped."""
    probs = np.multiply(binomial_row(cum_a.shape[0] - 1)[:, None], cum_a, out=cum_a)
    probs *= cum_b[::-1]
    probs /= den
    return probs


def _check_unit_interval(x: np.ndarray) -> None:
    if not (x.min(initial=0.0) >= 0.0 and x.max(initial=1.0) <= 1.0):  # NaN fails
        raise AdmissibilityError("x must lie in [0,1]")


def pmf_matrix(n: int, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vectorized pmf for parameter family (n, x, 1-x, c), shape (n+1, len(x)).

    c is broadcast to the shape of x; every column is the pmf of
    PolyaParams(n, x_j, 1-x_j, c_j), checked by :func:`_checked_pmf`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = np.full(x.shape, c, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        probs = _pmf_from_products(*rising_products(n, x, c, scaled=True))
    return _checked_pmf(probs, n)


def _pmf_column(n: int, x: float, c: float) -> np.ndarray:
    """The (n+1, 1) :func:`pmf_matrix` column of PolyaParams(n, x, 1-x, c),
    which the caller has admitted with :func:`validate`: the float operations
    of :func:`rising_products` in its order, both numerator runs in one
    accumulate, then the same checks."""
    cum = np.empty((2, n + 1, 1))
    cum[:, 0] = 1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        ic = np.arange(n, dtype=float)[:, None] * c
        np.add(x, ic, out=cum[0, 1:])
        np.add(1.0 - x, ic, out=cum[1, 1:])
        fd = np.add(1.0, ic, out=ic)
        if c > 0.0:
            scale = np.exp2(-np.rint(np.log2(fd).mean(axis=0)))
            cum[:, 1:] *= scale
            fd *= scale
        den = fd.prod(axis=0)
        np.multiply.accumulate(cum, axis=1, out=cum)
        probs = _pmf_from_products(cum[0], cum[1], den)
    return _checked_pmf(probs, n)


def _checked_pmf(probs: np.ndarray, n: int) -> np.ndarray:
    """probs, columns of a pmf, clipped to [0, 1] in place after a check
    that every entry is finite and none is below -_NEG_TOL; every column's
    sum is then checked against 1, not forced."""
    lo, hi = probs.min(), probs.max()  # a NaN entry makes both NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ArithmeticError(f"pmf entry overflows for n={n}")
    if lo < -_NEG_TOL:
        raise ArithmeticError(f"pmf entry {lo} below rounding tolerance")
    probs.clip(0.0, 1.0, out=probs)
    # max |t - 1| over the column sums t: subtraction is monotone, so it
    # is t - 1 at the largest t or 1 - t at the least.
    total = probs.sum(axis=0)
    drift = max(total.max() - 1.0, 1.0 - total.min())
    if drift > _SUM_TOL:
        raise ArithmeticError(f"pmf sum drifts from 1 by {drift} for n={n}")
    return probs


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    """lgamma(z) - (z - 1/2) log z + z - log(2 pi)/2 for z >= _STIRLING_MIN,
    elementwise, evaluated in place over z."""
    inv = np.divide(1.0, z, out=z)
    w = inv * inv
    s = w * _STIRLING_COEF[-1]
    for a in _STIRLING_COEF[-2:0:-1]:
        s += a
        s *= w
    s += _STIRLING_COEF[0]
    s *= inv
    return s


def log_rising(x, k, c) -> np.ndarray:
    """log x^(k,c) = log x(x+c)...(x+(k-1)c), elementwise over broadcast
    arrays x >= 0, integer k >= 0 and c with x + (k-1)c >= 0.

    Written as k log x + sum_{i<k} log1p(i c/x).  With u = x/|c| the sum is
    a log-gamma ratio, log Gamma(y+m)/Gamma(y) - m log u over a run of m
    factors starting at base y (y = u rising, y = u-k+1 falling), taken as
    a Stirling difference in log1p form: unlike a plain lgamma difference,
    which loses ~eps * u log u, its error does not grow with u, so tiny |c|
    is safe.  Factors whose base lies below _STIRLING_MIN are logged one by
    one as log(x + i c), the same floating-point factor
    :func:`rising_products` multiplies, and a factor that is <= 0 there
    (the admissibility boundary, at most BOUNDARY_SLACK below 0) gives
    -inf, i.e. an exact 0 product; a factor below that raises ValueError.
    c = 0 gives k log x; k = 0 gives 0.

    The result is within a few ulps of the true log, so a product formed
    from several such logs has relative error ~eps times their magnitude:
    ~1e-13 for k <= 400 and |c| <= 1/(k-1), up to ~1e-12 when k c is in
    the thousands.
    """
    x, k, c = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(k), np.asarray(c, dtype=float)
    )
    kf = k.astype(float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lx = np.log(x)
        out = np.where(k > 0, kf * lx, 0.0)
        u = x / np.abs(c)
    # u = inf: c = 0, or |c| so small that every log1p(i c/x) rounds to 0
    sel = (k > 0) & (x > 0.0) & np.isfinite(u)
    if not np.any(sel):
        return out
    xs, ks, cs, u, lx = x[sel], kf[sel], c[sel], u[sel], lx[sel]
    # Falling (c < 0): the run i < m ends at base u - m + 1 >= _STIRLING_MIN,
    # the factors i = m..k-1 are exact.  Rising: factors i < j are exact,
    # the run i = j..k-1 starts at u + j.
    m = np.clip(np.floor(u - _STIRLING_MIN) + 1.0, 0.0, ks)
    y = u - m + 1.0
    t, lo, count = 1.0, m, ks - m  # t = y + m - u
    rising = cs > 0.0
    if rising.any():
        j = np.clip(np.ceil(_STIRLING_MIN - u), 0.0, ks)
        m = np.where(rising, ks - j, m)
        y = np.where(rising, u + j, y)
        t = np.where(rising, ks, t)
        lo = np.where(rising, 0.0, lo)
        count = np.where(rising, j, count)
    val = m * lx + (y - 0.5) * np.log1p(m / y) + m * np.log1p(t / u) - m
    tails = _stirling_tail(np.stack([y + m, y]))
    val += tails[0]
    val -= tails[1]
    with np.errstate(divide="ignore"):
        for e in range(int(count.max())):
            cols = np.nonzero(e < count)[0]
            factor = xs[cols] + (lo[cols] + e) * cs[cols]
            val[cols] += np.log(np.maximum(factor, 0.0))
    # Only an explicit factor can be <= 0, and only falling, where the least
    # is the last, x + (k-1)c: one check per call, not one per factor.
    if val.min(initial=0.0) == -np.inf:
        least = (xs + (ks - 1.0) * cs)[val == -np.inf].min()
        if least < -BOUNDARY_SLACK:
            raise ValueError(f"factor {least} < 0 (slack {-BOUNDARY_SLACK}) in log_rising")
    out[sel] = val
    return out


def moments(params: PolyaParams) -> tuple[float, float]:
    """Mean na/(a+b) and variance nab/(a+b)^2 * (1 + (n-1)c/(a+b+c))."""
    validate(params)
    n, a, b, c = params.n, params.a, params.b, params.c
    total = a + b
    if total + c == 0.0:
        raise ValueError(f"variance formula is singular at a+b+c = 0 (params {params})")
    mean = n * a / total
    variance = n * a * b / total**2 * (1.0 + (n - 1) * c / (total + c))
    return mean, variance


def truncated_first_moment(
    params: PolyaParams, r: int, method: str = "closed"
) -> float:
    """Truncated first moment sum_{k=0}^{r} (a - k/n) * pmf[k], for a+b = 1.

    method="closed" uses the Kozniewska identity
    C(n-1,r) * a^(r+1,c) * (1-a)^(n-r,c) / 1^(n,c), the one scalar copy of
    that closed form (:func:`~polya_bernstein.analysis.f_n_c` calls it);
    method="brute" sums the literal series over the pmf.  The two agree to
    ~1e-15 and the brute route is kept as an independent oracle.
    """
    if abs(params.a + params.b - 1.0) > 1e-12:
        raise ValueError(f"truncated moment requires a+b = 1, got {params.a + params.b}")
    n = params.n
    if not 0 <= r <= n - 1:
        raise ValueError(f"r must lie in 0..n-1, got r={r}, n={n}")
    if method == "closed":
        validate(params)
        return float(binomial_row(n - 1)[r]) * factorial_ratio(params.a, r, n, params.c)
    if method == "brute":
        terms = (params.a - np.arange(r + 1) / n) * pmf(params)[: r + 1]  # validates
        # Summed in k order; + 0.0 turns a -0.0 total into 0.0, as a sum
        # started from 0 does.
        return float(np.add.accumulate(terms)[-1]) + 0.0
    raise ValueError(f"unknown method {method!r}")
