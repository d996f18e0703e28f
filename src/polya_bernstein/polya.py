"""Polya-Eggenberger urn distribution: validation, pmf, moments, and
truncated first moments (Kozniewska closed form plus a brute-force twin),
with the rising factorial x^(k,c) = x (x+c) ... (x+(k-1)c) both in log
space (:func:`log_rising`) and as cumulative products
(:func:`rising_products`).

Parameters (n, a, b, c) describe n draws from an urn with initial white
weight a, black weight b, and replacement increment c; c = 0 is binomial,
c < 0 removes weight after each draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numeric_core import factorial_ratio

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

# Slack for the boundary case where a + (n-1)c is meant to be exactly 0 but
# floating evaluation of c = -min{a,b}/(n-1) lands a few ulps below.
BOUNDARY_SLACK = 1e-14

_SUM_TOL = 1e-12
_NEG_TOL = 1e-15

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


def validate(params: PolyaParams, slack: float = BOUNDARY_SLACK) -> None:
    """Accept iff a,b >= 0, a+b > 0 and both a+(n-1)c and b+(n-1)c are >= 0.

    Equality is accepted within -slack; the boundary is where the variance-
    minimizing replacement profile lives.  Rejections name the violated
    inequality and its numeric slack.
    """
    n, a, b, c = params.n, params.a, params.b, params.c
    if n < 1:
        raise AdmissibilityError(f"n must be a positive integer, got {n}")
    if a < 0 or b < 0:
        raise AdmissibilityError(f"initial weights must be nonnegative, got a={a}, b={b}")
    if a + b <= 0:
        raise AdmissibilityError(f"a + b must be positive, got {a + b}")
    lhs_a = a + (n - 1) * c
    if lhs_a < -slack:
        raise AdmissibilityError(
            f"a + (n-1)c = {lhs_a} < 0 (slack {-slack}) for a={a}, n={n}, c={c}"
        )
    lhs_b = b + (n - 1) * c
    if lhs_b < -slack:
        raise AdmissibilityError(
            f"b + (n-1)c = {lhs_b} < 0 (slack {-slack}) for b={b}, n={n}, c={c}"
        )


def validate_sweep(n: int, x: np.ndarray, c: np.ndarray) -> None:
    """:func:`validate` for every column of the family (n, x, 1-x, c)."""
    lhs = np.minimum(x, 1.0 - x) + (n - 1) * c
    if np.any(lhs < -BOUNDARY_SLACK):
        raise AdmissibilityError(
            f"min{{x,1-x}} + (n-1)c = {lhs.min()} < 0 somewhere in the sweep"
        )


def pmf(params: PolyaParams) -> np.ndarray:
    """Probability mass function, entries k = 0..n.

    Entry k is C(n,k) * a^(k,c) * b^(n-k,c) / (a+b)^(n,c).  Parameters are
    first normalized to a+b = 1 (the pmf is homogeneous of degree 0), then
    each entry is computed by pairing numerator factor i with denominator
    factor i, as in :func:`factorial_ratio`.  Entries are clamped to [0,1];
    the sum-to-1 identity is asserted, not forced.
    """
    validate(params)
    n = params.n
    total = params.a + params.b
    a = params.a / total
    b = params.b / total
    c = params.c / total
    for i in range(n):
        if 1.0 + i * c == 0.0:
            raise ZeroDivisionError(
                f"denominator factor (a+b) + {i}*c vanishes for params {params}"
            )
    probs = np.empty(n + 1)
    for k in range(n + 1):
        num = [a + i * c for i in range(k)] + [b + j * c for j in range(n - k)]
        prod = float(math.comb(n, k))
        for i in range(n):
            prod *= num[i] / (1.0 + i * c)
        probs[k] = prod
    if probs.min() < -_NEG_TOL:
        raise ArithmeticError(
            f"pmf entry {probs.min()} below rounding tolerance {-_NEG_TOL} for {params}"
        )
    probs = np.clip(probs, 0.0, 1.0)
    drift = abs(probs.sum() - 1.0)
    if drift > _SUM_TOL:
        raise ArithmeticError(f"pmf sum drifts from 1 by {drift} for {params}")
    return probs


def rising_products(n: int, x: np.ndarray, c: np.ndarray):
    """Rising factorials of the family (n, x, 1-x, c) as cumulative products.

    x and c are 1-D arrays of equal length M.  Returns (cum_a, cum_b, den)
    with cum_a[k] = x^(k,c) and cum_b[m] = (1-x)^(m,c), both shaped
    (n+1, M), and den = 1^(n,c) shaped (M,).  Each product is accumulated
    in place, factor by factor; this is the reference route that the
    log-space :func:`log_rising` is checked against.
    """
    validate_sweep(n, x, c)
    ic = np.arange(n, dtype=float)[:, None] * c[None, :]
    cum_a = np.empty((n + 1, x.size))
    cum_b = np.empty((n + 1, x.size))
    cum_a[0] = 1.0
    cum_b[0] = 1.0
    np.add(x[None, :], ic, out=cum_a[1:])          # factor i of x^(k,c)
    np.add((1.0 - x)[None, :], ic, out=cum_b[1:])  # factor i of (1-x)^(m,c)
    fd = np.add(1.0, ic, out=ic)                   # factor i of 1^(n,c)
    if np.any(fd == 0.0):
        raise ZeroDivisionError("denominator factor 1 + i*c vanishes in the sweep")
    den = np.prod(fd, axis=0)
    np.multiply.accumulate(cum_a[1:], axis=0, out=cum_a[1:])
    np.multiply.accumulate(cum_b[1:], axis=0, out=cum_b[1:])
    return cum_a, cum_b, den


def pmf_matrix(n: int, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vectorized pmf for parameter family (n, x, 1-x, c), shape (n+1, len(x)).

    x and c are broadcast together; every column is the pmf of
    PolyaParams(n, x_j, 1-x_j, c_j).  Used by grid sweeps where the scalar
    path would dominate the runtime; agrees with :func:`pmf` to ~1e-15.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = np.broadcast_to(np.asarray(c, dtype=float), x.shape)
    if np.any(x < -BOUNDARY_SLACK) or np.any(x > 1 + BOUNDARY_SLACK):
        raise AdmissibilityError("x must lie in [0,1]")
    cum_a, cum_b, den = rising_products(n, x, c)
    binom = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    probs = np.multiply(binom[:, None], cum_a, out=cum_a)
    probs *= cum_b[::-1]
    probs /= den
    if probs.min() < -_NEG_TOL:
        raise ArithmeticError(f"pmf entry {probs.min()} below rounding tolerance")
    return np.clip(probs, 0.0, 1.0, out=probs)


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    """lgamma(z) - (z - 1/2) log z + z - log(2 pi)/2 for z >= _STIRLING_MIN."""
    inv = 1.0 / z
    w = inv * inv
    s = np.full_like(z, _STIRLING_COEF[-1])
    for a in _STIRLING_COEF[-2::-1]:
        s = s * w + a
    return s * inv


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
    (the admissibility boundary) gives -inf, i.e. an exact 0 product.
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
        out = np.where(k > 0, kf * np.log(x), 0.0)
        u = x / np.abs(c)
    # u = inf: c = 0, or |c| so small that every log1p(i c/x) rounds to 0
    sel = (k > 0) & (x > 0.0) & np.isfinite(u)
    if not np.any(sel):
        return out
    xs, ks, cs, u = x[sel], kf[sel], c[sel], u[sel]
    rising = cs > 0.0
    # Rising: factors i < j are exact, the run i = j..k-1 starts at u + j.
    # Falling: the run i < m ends at base u - m + 1 >= _STIRLING_MIN, the
    # factors i = m..k-1 are exact.
    j = np.clip(np.ceil(_STIRLING_MIN - u), 0.0, ks)
    m = np.where(rising, ks - j, np.clip(np.floor(u - _STIRLING_MIN) + 1.0, 0.0, ks))
    y = np.where(rising, u + j, u - m + 1.0)
    t = np.where(rising, ks, 1.0)  # y + m - u
    val = (
        m * np.log(xs)
        + (y - 0.5) * np.log1p(m / y)
        + m * np.log1p(t / u)
        - m
        + _stirling_tail(y + m)
        - _stirling_tail(y)
    )
    lo = np.where(rising, 0.0, m)
    count = np.where(rising, j, ks - m)
    with np.errstate(divide="ignore"):
        for e in range(int(count.max())):
            cols = np.nonzero(e < count)[0]
            factor = xs[cols] + (lo[cols] + e) * cs[cols]
            val[cols] += np.log(np.maximum(factor, 0.0))
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
    C(n-1,r) * a^(r+1,c) * (1-a)^(n-r,c) / 1^(n,c); method="brute" sums the
    literal series over the pmf.  The two agree to ~1e-15 and the brute
    route is kept as an independent oracle.
    """
    if abs(params.a + params.b - 1.0) > 1e-12:
        raise ValueError(f"truncated moment requires a+b = 1, got {params.a + params.b}")
    n = params.n
    if not 0 <= r <= n - 1:
        raise ValueError(f"r must lie in 0..n-1, got r={r}, n={n}")
    validate(params)
    if method == "closed":
        return math.comb(n - 1, r) * factorial_ratio(params.a, r, n, params.c)
    if method == "brute":
        probs = pmf(params)
        return float(sum((params.a - k / n) * probs[k] for k in range(r + 1)))
    raise ValueError(f"unknown method {method!r}")
