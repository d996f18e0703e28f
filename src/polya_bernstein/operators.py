"""Approximation operators on C[0,1].

The classical Bernstein operator B_n and the urn-based operator family
P_n^{x,1-x,c} with a pluggable replacement profile c(x); the paper's
operator R_n is the family under CProfile("rn"), c(x) = -min{x,1-x}/(n-1).
Each operator has one evaluation path, its curve over a grid; a point
query is the one-point view of that curve.  Also the grid-based modulus
of continuity and sup-norm error/ratio profiling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .numeric_core import binomial_row
from .polya import pmf_matrix
from .reports import GridSpec, ScanReport, _parse_n_range

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
    "modulus_of_continuity",
    "popoviciu_scan",
]

# Grid resolution of the modulus of continuity in Popoviciu ratios.
OMEGA_RESOLUTION = 10000


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
    """Piecewise-linear function through (xs, fx); the samples must be
    finite, xs must strictly increase and cover both endpoints of [0,1]."""
    xs = np.asarray(xs, dtype=float)
    fx = np.asarray(fx, dtype=float)
    if xs.ndim != 1 or xs.shape != fx.shape or xs.size < 2:
        raise ValueError("samples must be two equal-length 1-D sequences of length >= 2")
    if not (np.isfinite(xs).all() and np.isfinite(fx).all()):
        raise ValueError("samples must be finite")
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
    """Classical Bernstein polynomial sum f(k/n) C(n,k) x^k (1-x)^(n-k):
    the one-point view of :func:`bernstein_curve`."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x}")
    return float(bernstein_curve(f, n, np.array([x]))[0])


def bernstein_curve(f: FunctionSpec, n: int, xs: np.ndarray) -> np.ndarray:
    """Bernstein polynomial evaluated on a grid (vectorized over x)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    xs = np.asarray(xs, dtype=float)
    k = np.arange(n + 1, dtype=float)
    weights = binomial_row(n)[:, None] * xs[None, :] ** k[:, None] * (1.0 - xs)[None, :] ** (n - k)[:, None]
    return np.asarray(f(k / n)) @ weights


def polya_operator_eval(f: FunctionSpec, n: int, x: float, profile: CProfile) -> float:
    """Urn operator P_n^{x,1-x,c(x)}(f; x) = E f(X_n / n): the one-point
    view of :func:`operator_curve`."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x}")
    return float(operator_curve(f, n, np.array([x]), profile)[0])


def operator_curve(f: FunctionSpec, n: int, xs: np.ndarray, profile: CProfile) -> np.ndarray:
    """Urn operator evaluated on a grid (vectorized over x)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    xs = np.asarray(xs, dtype=float)
    cs = np.asarray(profile.c_at(xs, n), dtype=float)
    probs = pmf_matrix(n, xs, cs)
    k = np.arange(n + 1, dtype=float)
    return np.asarray(f(k / n)) @ probs


def _modulus_window(delta: float, resolution: int) -> int:
    """Grid steps within delta on a uniform grid of resolution+1 points."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0,1], got {delta}")
    if resolution < 100:
        raise ValueError(f"resolution must be >= 100, got {resolution}")
    return int(math.floor(delta * resolution + 1e-9))


def _modulus_samples(f: FunctionSpec, resolution: int) -> np.ndarray:
    return np.asarray(f(np.linspace(0.0, 1.0, resolution + 1)), dtype=float)


def _window_spread(vals: np.ndarray, window: int) -> float:
    """Largest max - min of vals over runs of window+1 consecutive samples.

    Block scheme of van Herk (Pattern Recognit. Lett. 13, 1992) and
    Gil-Werman (IEEE TPAMI 15, 1993): cut vals into blocks of w = window+1,
    take running extrema forward and backward inside each block; the run
    starting at j then spans the tail of one block and the head of the
    next, so its extremum is op(bwd[j], fwd[j+w-1]).  O(M) with a few numpy
    passes, and exact: max and min pick one of the samples.
    """
    if window <= 0:
        return 0.0
    m = vals.size
    w = min(window + 1, m)  # a longer window holds every sample
    runs = m - w + 1
    # No run starts in a padded last block, and fwd is read below m only,
    # so the pad values never reach the result.
    blocks = np.pad(vals, (0, -m % w)).reshape(-1, w)
    ext = []
    for op in (np.maximum, np.minimum):
        fwd = op.accumulate(blocks, axis=1).ravel()
        bwd = op.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
        ext.append(op(bwd[:runs], fwd[w - 1 : m]))
    return float((ext[0] - ext[1]).max())


def modulus_of_continuity(f: FunctionSpec, delta: float, resolution: int = OMEGA_RESOLUTION) -> float:
    """Grid modulus of continuity: max |f(u)-f(v)| over grid pairs with
    |u-v| <= delta, on a uniform grid of resolution+1 points.

    The largest spread over every window of floor(delta * resolution) + 1
    consecutive samples, from O(M) block window extrema.  This is an
    under-estimate of the true modulus; raise the resolution to tighten it.
    """
    window = _modulus_window(delta, resolution)
    return _window_spread(_modulus_samples(f, resolution), window)


def popoviciu_scan(
    f: FunctionSpec, ns: Iterable[int], grid: GridSpec, operator: str = "rn"
) -> ScanReport:
    """Per-n and global sup over the grid of |Op(f;x) - f(x)| / omega(n^{-1/2}),
    with omega on a grid of OMEGA_RESOLUTION + 1 points.

    operator is "bernstein" or "rn".  ns follows the n rule of every sweep
    (distinct, sorted, 2..N_MAX).  f is sampled once on the modulus grid
    and once on the scan grid.  The global sup follows
    :meth:`ScanReport.from_per_n`.  Rejects (near-)constant f, whose ratio
    is 0/0.
    """
    if operator not in ("bernstein", "rn"):
        raise ValueError(f"unknown operator {operator!r}")
    ns = _parse_n_range(ns)
    vals = _modulus_samples(f, OMEGA_RESOLUTION)
    xs = np.linspace(0.0, 1.0, grid.points)
    fx = np.asarray(f(xs))
    per_n = []
    for n in ns:
        omega = _window_spread(vals, _modulus_window(n ** -0.5, OMEGA_RESOLUTION))
        if omega <= 0.0:
            raise ValueError(f"function {f.name!r} is constant on the grid; ratio undefined")
        if operator == "bernstein":
            curve = bernstein_curve(f, n, xs)
        else:
            curve = operator_curve(f, n, xs, CProfile("rn"))
        ratios = np.abs(curve - fx) / omega
        idx = int(np.argmax(ratios))  # first occurrence: ties break toward smaller x
        per_n.append((n, float(ratios[idx]), float(xs[idx])))
    return ScanReport.from_per_n(
        per_n, grid, {"operator": operator, "function": f.name, "kind": "popoviciu-ratio"}
    )
