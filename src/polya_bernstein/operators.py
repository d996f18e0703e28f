"""Approximation operators on C[0,1].

The urn-based operator family P_n^{x,1-x,c} with a pluggable replacement
profile c(x): the paper's R_n under CProfile("rn"), c(x) = -min{x,1-x}/(n-1),
and the classical Bernstein B_n at c = 0, CProfile("zero").  The curve over
a grid forms the Bernstein basis directly where every c is 0; a point query
has the bits of its one-point curve from one column, that basis where
c(x) = 0 and else one pmf column, not a sweep.  Also the grid-based modulus
of continuity and sup-norm error/ratio profiling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .numeric_core import binomial_row
from .polya import PolyaParams, _check_unit_interval, _pmf_column, pmf_matrix, validate
from .reports import GridSpec, ScanReport, _check_cells, _parse_n_range

__all__ = [
    "FunctionSpec",
    "BUILTIN_FUNCTIONS",
    "builtin_function",
    "function_from_samples",
    "function_from_csv",
    "CProfile",
    "bernstein_eval",
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
    return function_from_samples(xs, fx, name=path)


@dataclass(frozen=True)
class CProfile:
    """Replacement-increment profile c(x) for the urn operator family.

    kind "zero" is the Bernstein degeneracy, "rn" is the admissibility
    boundary -min{x,1-x}/(n-1), "constant" is a fixed finite c, admitted
    or not per column by the pmf route: at a point x if c >= -min{x,1-x}/(n-1),
    on a grid holding x = 0 or 1 (every CLI grid) not if c < 0 and n > 1.
    """

    kind: str = "rn"
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "rn", "constant"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"profile value must be finite, got {self.value}")

    def c_at(self, x, n: int):
        """c at x: for a float x (np.float64 included) a float, in plain
        Python with the array route's bits; else an array shaped like x."""
        if self.kind != "rn":
            c = 0.0 if self.kind == "zero" else float(self.value)
            return c if isinstance(x, float) else np.full_like(np.asarray(x, dtype=float), c)
        if n <= 1:
            raise ValueError(f"rn profile requires n > 1, got n={n}")
        if isinstance(x, float):
            return -min(x, 1.0 - x) / (n - 1)
        x = np.asarray(x, dtype=float)
        return -np.minimum(x, 1.0 - x) / (n - 1)


_ZERO = CProfile("zero")
_RN = CProfile("rn")


def bernstein_eval(f: FunctionSpec, n: int, x: float) -> float:
    """Classical Bernstein polynomial sum f(k/n) C(n,k) x^k (1-x)^(n-k):
    the zero-profile :func:`polya_operator_eval`, on one Bernstein column."""
    return polya_operator_eval(f, n, x, _ZERO)


def polya_operator_eval(f: FunctionSpec, n: int, x: float, profile: CProfile) -> float:
    """Urn operator P_n^{x,1-x,c(x)}(f; x) = E f(X_n / n), with the bits
    and refusals of the one-point :func:`operator_curve`: f(k/n) against
    one column, the Bernstein basis where c(x) = 0, else the pmf column
    that :func:`validate` admits and the one-column builder forms."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0,1], got {x}")
    _check_size(n, 1)
    x = float(x)
    k = np.arange(n + 1, dtype=float)
    if c := profile.c_at(x, n):
        validate(PolyaParams(n, x, 1.0 - x, c))
        column = _pmf_column(n, x, c)[:, 0]
    else:
        column = _bernstein_basis(n, x, k)
    return float(np.asarray(f(k / n)) @ column)


def _check_size(n: int, points: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_cells((n + 1) * points, "an operator curve")


def _bernstein_basis(n: int, x, k: np.ndarray) -> np.ndarray:
    """C(n,k) x^k (1-x)^(n-k), broadcast over x and k; the row takes k's shape."""
    return binomial_row(n).reshape(k.shape) * x ** k * (1.0 - x) ** (n - k)


def operator_curve(f: FunctionSpec, n: int, xs: np.ndarray, profile: CProfile) -> np.ndarray:
    """Urn operator evaluated on a grid (vectorized over x).  Where every c
    is 0 the pmf is the Bernstein basis, products of nonnegative factors
    summing to within 6e-14 of 1 up to n = 1029, so :func:`pmf_matrix`,
    with its checks, serves only c != 0."""
    xs = np.asarray(xs, dtype=float)
    _check_size(n, xs.size)
    k = np.arange(n + 1, dtype=float)
    if profile.kind != "zero" and np.count_nonzero(cs := profile.c_at(xs, n)):
        probs = pmf_matrix(n, xs, cs)
    else:
        _check_unit_interval(xs)
        probs = _bernstein_basis(n, xs[None, :], k[:, None])
    return np.asarray(f(k / n)) @ probs


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


def modulus_of_continuity(f: FunctionSpec, delta, resolution: int = OMEGA_RESOLUTION):
    """Grid modulus of continuity: max |f(u)-f(v)| over grid pairs with
    |u-v| <= delta, on a uniform grid of resolution+1 points, as the largest
    spread over every window of floor(delta * resolution) + 1 consecutive
    samples (O(M) block window extrema).  A float delta gives a float, an
    array of them an array of its shape, from one sampling of f.  This is
    an under-estimate of the true modulus; raise the resolution to tighten it.
    """
    deltas = np.asarray(delta, dtype=float)
    if not np.all((deltas > 0.0) & (deltas <= 1.0)):
        raise ValueError(f"delta must lie in (0,1], got {delta}")
    if resolution < 100:
        raise ValueError(f"resolution must be >= 100, got {resolution}")
    vals = np.asarray(f(np.linspace(0.0, 1.0, resolution + 1)), dtype=float)
    windows = np.floor(deltas * resolution + 1e-9).astype(int).ravel().tolist()
    spreads = [_window_spread(vals, window) for window in windows]
    return spreads[0] if deltas.ndim == 0 else np.reshape(spreads, deltas.shape)


def popoviciu_scan(
    f: FunctionSpec, ns: Iterable[int], grid: GridSpec, operator: str = "rn"
) -> ScanReport:
    """Per-n and global sup over the grid of |Op(f;x) - f(x)| / omega(n^{-1/2}),
    with every n's omega from one :func:`modulus_of_continuity` call.

    operator is "bernstein" (the zero profile) or "rn".  ns follows the n
    rule of every sweep (distinct, sorted, 2..N_MAX).  Each n's ratio curve
    feeds :meth:`ScanReport.from_curves`, the reduction of every scan.
    Rejects f constant on the modulus grid, whose ratio is 0/0, up front.
    """
    if operator not in ("bernstein", "rn"):
        raise ValueError(f"unknown operator {operator!r}")
    profile = _ZERO if operator == "bernstein" else _RN
    ns = _parse_n_range(ns)
    _check_cells((ns[-1] + 1) * grid.points, "an operator curve")
    omegas = modulus_of_continuity(f, [n ** -0.5 for n in ns])
    if (omegas <= 0.0).any():
        raise ValueError(f"function {f.name!r} is constant on the grid; ratio undefined")
    xs = np.linspace(0.0, 1.0, grid.points)
    fx = np.asarray(f(xs))
    curves = ((n, (xs, np.abs(operator_curve(f, n, xs, profile) - fx) / omega))
              for n, omega in zip(ns, omegas))
    meta = {"operator": operator, "function": f.name, "kind": "popoviciu-ratio"}
    return ScanReport.from_curves(curves, grid, meta)
