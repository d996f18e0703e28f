"""Reference values for the benchmark's output checks.

The library builds Polya-Eggenberger probabilities from cumulative products
of rising-factorial factors.  This module takes another route: each
probability is the exponential of a sum of logarithms, with the binomial
coefficient from ``math.lgamma``, and truncated moments are literal tail
sums.  A kernel rewrite in the library is therefore checked against code it
shares nothing with.  Test functions are re-implemented here for the same
reason.
"""

from __future__ import annotations

import functools
import math

import numpy as np

SAW_X = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
SAW_Y = (0.0, 1.0, 0.0, 1.0)

FUNCTIONS = {
    "linear": lambda t: t,
    "square": lambda t: t * t,
    "abs-mid": lambda t: np.abs(t - 0.5),
    "sin-pi": lambda t: np.sin(np.pi * t),
    "sawtooth": lambda t: np.interp(t, SAW_X, SAW_Y),
    "sqrt": np.sqrt,
}


def table_function(xs, fx):
    """Piecewise-linear interpolant through a sampled table."""
    return lambda t: np.interp(t, xs, fx)


def strict_floor(a: float) -> int:
    """]a[: the largest integer strictly below a, where a value within
    1e-12 (relative) of an integer counts as that integer."""
    m = round(a)
    if abs(a - m) <= 1e-12 * max(1.0, abs(a)):
        return m - 1
    return math.floor(a)


def rn_c(n: int, x: float) -> float:
    """Boundary replacement profile c(x) = -min{x, 1-x}/(n-1)."""
    return -min(x, 1.0 - x) / (n - 1)


def _log_rising(a: float, c: float, m: int) -> list[float]:
    """[log a^(k,c) for k = 0..m]; -inf from the first factor that is <= 0."""
    out = [0.0]
    s = 0.0
    for i in range(m):
        f = a + i * c
        s = s + math.log(f) if (f > 0.0 and s > -math.inf) else -math.inf
        out.append(s)
    return out


def pmf(n: int, x: float, c: float) -> list[float]:
    """P(X = k), k = 0..n, for the urn with weights (x, 1-x) and increment c."""
    la = _log_rising(x, c, n)
    lb = _log_rising(1.0 - x, c, n)
    ld = _log_rising(1.0, c, n)[n]
    lg = math.lgamma(n + 1)
    out = []
    for k in range(n + 1):
        s = la[k] + lb[n - k]
        if s == -math.inf:
            out.append(0.0)
        else:
            out.append(math.exp(lg - math.lgamma(k + 1) - math.lgamma(n - k + 1) + s - ld))
    return out


def operator(f, n: int, x: float, c: float) -> float:
    """E f(X/n): the urn operator at x (c = 0 gives the Bernstein polynomial)."""
    fk = np.asarray(f(np.arange(n + 1) / n), dtype=float)
    return math.fsum(float(v) * p for v, p in zip(fk, pmf(n, x, c)))


def truncated_moment(n: int, x: float, c: float, r: int) -> float:
    """sum_{k <= r} (x - k/n) P(X = k)."""
    p = pmf(n, x, c)
    return math.fsum((x - k / n) * p[k] for k in range(r + 1))


def f_n_c(n: int, x: float, c: float) -> float:
    """F_n^c(x): the truncated moment at r = ]n x - sqrt(n)[, 0 for x <= 1/sqrt(n)."""
    if x <= 1.0 / math.sqrt(n):
        return 0.0
    r = strict_floor(n * x - math.sqrt(n))
    if r < 0:
        return 0.0
    return truncated_moment(n, x, c, min(r, n - 1))


def sikkema(n: int, x: float, c_mode: str) -> float:
    """1 + sqrt(n) (F_n^c(x) + F_n^c(1-x)) with c = 0 or c = rn_c(n, x)."""
    c = 0.0 if c_mode == "zero" else rn_c(n, x)
    return 1.0 + math.sqrt(n) * (f_n_c(n, x, c) + f_n_c(n, 1.0 - x, c))


@functools.lru_cache(maxsize=None)
def modulus(f, delta: float, resolution: int = 10000) -> float:
    """max |f(u) - f(v)| over grid pairs at most delta apart, by brute force
    over every index shift (the library uses monotone deques)."""
    vals = np.asarray(f(np.linspace(0.0, 1.0, resolution + 1)), dtype=float)
    window = int(math.floor(delta * resolution + 1e-9))
    best = 0.0
    for s in range(1, window + 1):
        best = max(best, float(np.abs(vals[s:] - vals[:-s]).max()))
    return best


def popoviciu_ratio(f, n: int, x: float, op: str) -> float:
    """|Op(f; x) - f(x)| / omega(f, n^-1/2) for op "bernstein" or "rn"."""
    c = 0.0 if op == "bernstein" else rn_c(n, x)
    value = float(f(x)) if x in (0.0, 1.0) else operator(f, n, x, c)
    return abs(value - float(f(x))) / modulus(f, n ** -0.5)
