"""Shared floating-point primitives.

The strict-floor bracket used for truncation indices, a stabilized
three-factorial ratio, the scalar closed-form kernel behind the point
evaluations of F_n^c, and the cached binomial row that the pmf, Bernstein
and F_n^c code reads.  Everything here is deterministic and safe to call
from any number of workers.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "strict_floor_bracket",
    "factorial_ratio",
    "binomial_row",
]

# How far below 0 rounding can leave a + (n-1)c at c = -min{a,b}/(n-1).
BOUNDARY_SLACK = 1e-14


def strict_floor_bracket(a):
    """Largest integer strictly smaller than a, i.e. the k with k < a <= k+1,
    elementwise over arrays: an int for a scalar, an int array for an array
    (0-d included).  NaN, +-inf and |a| >= 2**53, where a - 1 need not be
    a float, raise ValueError.

    Values within 1e-12 max(1, |a|) of an integer m are snapped to m first
    (so the result is m-1); elsewhere this is plain floor.  The tolerance
    absorbs the few ulps of noise picked up when a is computed as
    n*x - sqrt(n).  A Python float or int (np.float64 included) takes the
    same rule in plain Python, without numpy's cost per call; round()
    rounds half to even, like np.rint.
    """
    if isinstance(a, (float, int)):
        if not abs(a) < 2**53:
            raise ValueError(f"strict floor needs |a| < 2**53, got {a}")
        nearest = round(a)
        if abs(a - nearest) <= 1e-12 * max(1.0, abs(a)):
            return nearest - 1
        return math.floor(a)
    v = np.asarray(a, dtype=float)
    if not (np.abs(v) < 2**53).all():
        raise ValueError(f"strict floor needs |a| < 2**53, got {a}")
    v = v[()]  # a numpy scalar for scalar input: faster
    nearest = np.rint(v)
    snapped = np.abs(v - nearest) <= 1e-12 * np.maximum(1.0, np.abs(v))
    k = np.where(snapped, nearest - 1.0, np.floor(v)).astype(int)
    return k if isinstance(a, np.ndarray) or np.ndim(a) > 0 else int(k)


def factorial_ratio(x: float, r: int, n: int, c: float) -> float:
    """Stabilized evaluation of x^(r+1,c) * (1-x)^(n-r,c) / 1^(n,c).

    Each factor is the float x + i*c, (1-x) + j*c or 1 + i*c.  A least
    numerator factor in [-BOUNDARY_SLACK, 0] is the admissibility
    boundary's exact 0, left a few ulps to either side by rounding: the
    result is then exactly 0, as in :func:`~polya_bernstein.polya.log_rising`.
    A least factor below that, or a non-finite (n-1)c, raises ValueError; a
    vanishing denominator factor raises ZeroDivisionError first.  These
    checks read end factors in Python floats, so a boundary point makes no
    numpy call.  Factor i of the numerator is divided by factor i of the
    denominator so intermediate magnitudes stay near 1, and the leftover
    numerator factor is applied last.  np.multiply.accumulate multiplies
    the quotients in the order, and so to every bit, of a sequential loop;
    np.prod promises no order (np.sum adds pairwise).
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x}")
    if not 0 <= r <= n - 1:
        raise ValueError(f"r must lie in 0..n-1, got r={r}, n={n}")
    nc = (n - 1) * c
    if not math.isfinite(nc):
        raise ValueError(f"(n-1)c = {nc} is not finite for n={n}, c={c}")
    # 1 + i*c is >= 1 for c >= 0 and falls with i for c < 0 (rounding is
    # monotone), so the run needs a scan only if its last factor is not > 0.
    if not 1.0 + nc > 0.0:
        den = 1.0 + np.arange(n) * c
        if not den.all():
            i = int(np.flatnonzero(den == 0.0)[0])
            raise ZeroDivisionError(f"denominator factor 1 + {i}*c vanishes for c={c}")
    # Each run of factors is monotone in i, so its least factor is an end.
    y = 1.0 - x
    last = y + (n - r - 1) * c
    least = min(x, x + r * c, y, last)
    if not least > 0.0:
        if least < -BOUNDARY_SLACK:
            raise ValueError(f"numerator factor {least} < 0 (slack {-BOUNDARY_SLACK}) for c={c}")
        return 0.0
    ic = np.arange(n, dtype=float) * c
    q = x + ic  # x + i*c for i <= r, then (1-x) + j*c
    np.add(y, ic[: n - r - 1], out=q[r + 1 :])
    ic += 1.0
    q /= ic
    return float(np.multiply.accumulate(q, out=q)[-1] * last)


def _check_float_binomial(n: int) -> None:
    """Refuse a float C(n, k) for n > 1029, where C(n, n/2) overflows."""
    if n > 1029:
        raise OverflowError(f"float binomial row capped at n = 1029, got n={n}")


@functools.lru_cache(maxsize=512)
def binomial_row(n: int, log: bool = False) -> np.ndarray:
    """C(n, k) for k = 0..n as floats, or with log=True their math.log,
    read-only and cached per (n, log).

    The coefficients come exact from the integer recurrence
    C(n, k+1) = C(n, k) (n-k) // (k+1), run to the middle of the row,
    and are rounded (or logged) once, then mirrored, so the row equals
    ``[math.comb(n, k) ...]`` bit for bit.  The log row logs the
    exact integers, not the rounded floats (np.log of the float row can
    move a last bit), and has no size cap; the float row is refused by
    :func:`_check_float_binomial` before any integer is built.
    """
    if not log:
        _check_float_binomial(n)
    row = [1]
    for k in range(n // 2):
        row.append(row[-1] * (n - k) // (k + 1))
    half = np.array([math.log(v) for v in row] if log else row, dtype=float)
    out = np.concatenate((half, half[: n - n // 2][::-1]))
    out.flags.writeable = False
    return out
