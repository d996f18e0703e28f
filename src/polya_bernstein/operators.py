"""Approximation operators on C[0,1].

The classical Bernstein operator, the urn-based operator family
P_n^{x,1-x,c} with a pluggable replacement profile c(x), and the boundary
profile operator R_n with c(x) = -min{x,1-x}/(n-1).  Also the grid-based
modulus of continuity and sup-norm error/ratio profiling.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .polya import PolyaParams, pmf, pmf_matrix, validate
from .reports import GridSpec, ScanReport

__all__ = [
    "FunctionSpec",
    "BUILTIN_FUNCTIONS",
    "builtin_function",
    "function_from_samples",
    "function_from_csv",
    "CProfile",
    "bernstein_eval",
    "bernstein_curve",
    "polya_operator_eval",
    "operator_curve",
    "r_n_eval",
    "r_n_curve",
    "modulus_of_continuity",
    "popoviciu_ratio",
]


@dataclass(frozen=True)
class FunctionSpec:
    """A real-valued test function on [0,1], callable on scalars and arrays."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))


_SAW_X = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
_SAW_Y = np.array([0.0, 1.0, 0.0, 1.0])

# Mixes smooth, Lipschitz and non-Lipschitz-at-0 behavior.
BUILTIN_FUNCTIONS: dict[str, FunctionSpec] = {
    "linear": FunctionSpec("linear", lambda t: t),
    "square": FunctionSpec("square", lambda t: t * t),
    "abs-mid": FunctionSpec("abs-mid", lambda t: np.abs(t - 0.5)),
    "sin-pi": FunctionSpec("sin-pi", lambda t: np.sin(np.pi * t)),
    "sawtooth": FunctionSpec("sawtooth", lambda t: np.interp(t, _SAW_X, _SAW_Y)),
    "sqrt": FunctionSpec("sqrt", np.sqrt),
}


def builtin_function(name: str) -> FunctionSpec:
    try:
        return BUILTIN_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown function {name!r}; built-ins: {sorted(BUILTIN_FUNCTIONS)}"
        ) from None


def function_from_samples(xs: Sequence[float], fx: Sequence[float], name: str = "table") -> FunctionSpec:
    """Piecewise-linear function through (xs, fx); xs must strictly increase
    and cover both endpoints of [0,1]."""
    xs = np.asarray(xs, dtype=float)
    fx = np.asarray(fx, dtype=float)
    if xs.ndim != 1 or xs.shape != fx.shape or xs.size < 2:
        raise ValueError("samples must be two equal-length 1-D sequences of length >= 2")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sample abscissae must be strictly increasing")
    if xs[0] != 0.0 or xs[-1] != 1.0:
        raise ValueError(f"samples must start at x=0 and end at x=1, got [{xs[0]}, {xs[-1]}]")
    return FunctionSpec(name, lambda t: np.interp(t, xs, fx))


def function_from_csv(path: str) -> FunctionSpec:
    """Load a sampled-table function from CSV with header ``x,fx``."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "fx"]:
            raise ValueError(f"expected CSV header 'x,fx' in {path}, got {header}")
        for row in reader:
            if not row:
                continue
            where = f"{path} line {reader.line_num}"
            if len(row) != 2:
                raise ValueError(f"{where}: expected 2 values x,fx, got {len(row)}: {row}")
            try:
                x, fx = float(row[0]), float(row[1])
            except ValueError:
                raise ValueError(f"{where}: values must be numbers, got {row}") from None
            if not (math.isfinite(x) and math.isfinite(fx)):
                raise ValueError(f"{where}: values must be finite, got {row}")
            rows.append((x, fx))
    if not rows:
        raise ValueError(f"no samples in {path}")
    xs, fx = zip(*rows)
    return FunctionSpec(path, function_from_samples(xs, fx).fn)


@dataclass(frozen=True)
class CProfile:
    """Replacement-increment profile c(x) for the urn operator family.

    kind "zero" is the Bernstein degeneracy, "rn" is the admissibility
    boundary -min{x,1-x}/(n-1), "constant" is a fixed c (which must be
    >= 0 to stay admissible at the endpoints x in {0,1}).
    """

    kind: str = "rn"
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "rn", "constant"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "constant" and self.value < 0:
            raise ValueError(
                f"constant profile c={self.value} is inadmissible near the endpoints; "
                "use kind='rn' for x-dependent negative replacement"
            )

    def c_at(self, x, n: int):
        if self.kind == "zero":
            return np.zeros_like(np.asarray(x, dtype=float))
        if self.kind == "constant":
            return np.full_like(np.asarray(x, dtype=float), self.value)
        if n <= 1:
            raise ValueError(f"rn profile requires n > 1, got n={n}")
        x = np.asarray(x, dtype=float)
        return -np.minimum(x, 1.0 - x) / (n - 1)


def bernstein_eval(f: FunctionSpec, n: int, x: float) -> float:
    """Classical Bernstein polynomial sum f(k/n) C(n,k) x^k (1-x)^(n-k)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x}")
    total = 0.0
    for k in range(n + 1):
        total += float(f(k / n)) * math.comb(n, k) * x**k * (1.0 - x) ** (n - k)
    return total


def bernstein_curve(f: FunctionSpec, n: int, xs: np.ndarray) -> np.ndarray:
    """Bernstein polynomial evaluated on a grid (vectorized over x)."""
    xs = np.asarray(xs, dtype=float)
    k = np.arange(n + 1, dtype=float)
    binom = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
    weights = binom[:, None] * xs[None, :] ** k[:, None] * (1.0 - xs)[None, :] ** (n - k)[:, None]
    return np.asarray(f(k / n)) @ weights


def polya_operator_eval(f: FunctionSpec, n: int, x: float, profile: CProfile) -> float:
    """Urn operator P_n^{x,1-x,c(x)}(f; x) = E f(X_n / n).

    At x in {0,1} the distribution is a point mass and the profile value is
    irrelevant, so f(x) is returned directly.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x}")
    if x == 0.0 or x == 1.0:
        return float(f(x))
    c = float(profile.c_at(x, n))
    params = PolyaParams(n, x, 1.0 - x, c)
    validate(params)
    probs = pmf(params)
    k = np.arange(n + 1, dtype=float)
    return float(np.asarray(f(k / n)) @ probs)


def operator_curve(f: FunctionSpec, n: int, xs: np.ndarray, profile: CProfile) -> np.ndarray:
    """Urn operator evaluated on a grid (vectorized over x)."""
    xs = np.asarray(xs, dtype=float)
    cs = np.asarray(profile.c_at(xs, n), dtype=float)
    probs = pmf_matrix(n, xs, cs)
    k = np.arange(n + 1, dtype=float)
    vals = np.asarray(f(k / n)) @ probs
    # point-mass endpoints, computed directly
    ends = (xs == 0.0) | (xs == 1.0)
    if np.any(ends):
        vals[ends] = np.asarray(f(xs[ends]))
    return vals


def r_n_eval(f: FunctionSpec, n: int, x: float) -> float:
    """The boundary-profile operator R_n(f; x)."""
    if n <= 1:
        raise ValueError(f"R_n requires n > 1, got {n}")
    return polya_operator_eval(f, n, x, CProfile("rn"))


def r_n_curve(f: FunctionSpec, n: int, xs: np.ndarray) -> np.ndarray:
    if n <= 1:
        raise ValueError(f"R_n requires n > 1, got {n}")
    return operator_curve(f, n, xs, CProfile("rn"))


def modulus_of_continuity(f: FunctionSpec, delta: float, resolution: int = 10000) -> float:
    """Grid modulus of continuity: max |f(u)-f(v)| over grid pairs with
    |u-v| <= delta, on a uniform grid of resolution+1 points.

    Sliding-window extrema (monotone deques) keep the cost linear in the
    grid size.  This is an under-estimate of the true modulus; raise the
    resolution to tighten it.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0,1], got {delta}")
    if resolution < 100:
        raise ValueError(f"resolution must be >= 100, got {resolution}")
    vals = np.asarray(f(np.linspace(0.0, 1.0, resolution + 1)), dtype=float)
    window = int(math.floor(delta * resolution + 1e-9))
    if window <= 0:
        return 0.0
    best = 0.0
    maxq: deque[int] = deque()
    minq: deque[int] = deque()
    for i, v in enumerate(vals):
        while maxq and vals[maxq[-1]] <= v:
            maxq.pop()
        maxq.append(i)
        while minq and vals[minq[-1]] >= v:
            minq.pop()
        minq.append(i)
        lo = i - window
        if maxq[0] < lo:
            maxq.popleft()
        if minq[0] < lo:
            minq.popleft()
        spread = vals[maxq[0]] - vals[minq[0]]
        if spread > best:
            best = float(spread)
    return best


def popoviciu_ratio(
    f: FunctionSpec,
    n: int,
    grid: GridSpec,
    operator: str = "rn",
    omega_resolution: int = 10000,
) -> ScanReport:
    """Sup over the grid of |Op(f;x) - f(x)| / omega(n^{-1/2}).

    operator is "bernstein" or "rn".  Rejects (near-)constant f, whose
    ratio is 0/0.
    """
    if n <= 1:
        raise ValueError(f"ratio scan requires n > 1, got {n}")
    omega = modulus_of_continuity(f, n ** -0.5, omega_resolution)
    if omega <= 0.0:
        raise ValueError(f"function {f.name!r} is constant on the grid; ratio undefined")
    xs = np.linspace(0.0, 1.0, grid.points)
    if operator == "bernstein":
        curve = bernstein_curve(f, n, xs)
    elif operator == "rn":
        curve = r_n_curve(f, n, xs)
    else:
        raise ValueError(f"unknown operator {operator!r}")
    ratios = np.abs(curve - np.asarray(f(xs))) / omega
    idx = int(np.argmax(ratios))  # first occurrence: ties break toward smaller x
    return ScanReport(
        sup=float(ratios[idx]),
        argmax_x=float(xs[idx]),
        grid=grid,
        argmax_n=n,
        meta={"operator": operator, "function": f.name, "omega": omega, "n": n},
    )
