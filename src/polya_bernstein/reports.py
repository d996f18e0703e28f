"""Report types shared by the scanners and the CLI, the one n rule of
every sweep over n, and the one reduction of every scan's per-n curves.

ScanReport and VerificationReport serialize to a stable, versioned JSON
schema (``schema: 1``); per-n curves export to CSV with header ``n,x,value``.
Serialization is deterministic: keys are sorted and floats use repr, so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Iterable, Sequence

__all__ = ["GridSpec", "ScanReport", "VerificationReport", "dump_json", "write_curves_csv"]

SCHEMA_VERSION = 1
# How far inside each half-open piece a scan grid samples the one-sided
# limit at a jump of the scanned function.
BREAKPOINT_OFFSET = 1e-9
# The largest n of any sweep over n: sup scans, ratio scans and verifiers.
N_MAX = 200
# The most cells one n may hold: the (n+1) x grid points of an operator
# curve, about 25 bytes each, or the grid points x c-samples of a verifier
# sweep, about 17 bytes each.  A larger request is refused before it is built.
CELLS_MAX = 4_000_000


def _check_cells(cells: int, what: str) -> None:
    if cells > CELLS_MAX:
        raise ValueError(f"{what} needs {cells} cells per n, capped at {CELLS_MAX}")


def _parse_n_range(n_range: Iterable[int]) -> list[int]:
    """The distinct n of n_range in increasing order, all in 2..N_MAX.  An
    ascending range is checked before its n are listed, so a huge one is
    rejected in O(1) memory."""
    ascending = isinstance(n_range, range) and n_range.step > 0
    ns = n_range if ascending else sorted(set(int(n) for n in n_range))
    if not ns:
        raise ValueError("empty n range")
    if ns[0] < 2:
        raise ValueError(f"scans require n >= 2, got {ns[0]}")
    if ns[-1] > N_MAX:
        raise ValueError(f"scan range capped at n = {N_MAX}, got {ns[-1]}")
    return list(ns)


@dataclass(frozen=True)
class GridSpec:
    """Deterministic 1-D evaluation grid on [0,1] with ``points`` uniform
    points.  The Sikkema scans refine it at jumps (:class:`_RefinedGrid`)."""

    points: int = 10001

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.points}")

    def to_json_dict(self) -> dict[str, Any]:
        return {"points": self.points}


class _RefinedGrid(GridSpec):
    """The grid of a Sikkema sup scan: the uniform points plus samples
    BREAKPOINT_OFFSET inside each half-open piece of the scanned function,
    which its report records."""

    def to_json_dict(self) -> dict[str, Any]:
        return {**super().to_json_dict(), "refine_breakpoints": True,
                "breakpoint_offset": BREAKPOINT_OFFSET}


@dataclass(frozen=True)
class ScanReport:
    """Result of a sup-search over x and n."""

    sup: float
    argmax_x: float
    grid: GridSpec
    argmax_n: int
    per_n: tuple[tuple[int, float, float], ...]  # (n, sup_n, argmax_x_n)
    meta: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_curves(cls, curves: Iterable[tuple[int, tuple[Any, Any]]], grid: GridSpec,
                    meta: dict[str, Any], curves_csv: str | None = None) -> ScanReport:
        """The report of a scan from its stream of per-n curves (n, (xs,
        values)) in n order.  Each n keeps its first maximiser (ties go to the
        smaller x); the global sup is the first largest per-n sup.  With
        curves_csv, opened before the first curve is drawn, each curve is
        written there as n,x,value rows as it arrives."""
        per_n = []

        def rows():
            for n, (xs, values) in curves:
                i = int(values.argmax())
                per_n.append((n, float(values[i]), float(xs[i])))
                if curves_csv is not None:
                    yield from zip(repeat(n), xs.tolist(), values.tolist())

        if curves_csv is None:
            deque(rows(), maxlen=0)  # runs the reduction; there are no rows
        else:
            write_curves_csv(curves_csv, rows())
        if not per_n:
            raise ValueError("empty n range")
        n, sup, x = max(per_n, key=lambda t: t[1])
        return cls(sup=sup, argmax_x=x, argmax_n=n, grid=grid, per_n=tuple(per_n), meta=meta)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "scan",
            "sup": self.sup,
            "argmax_x": self.argmax_x,
            "argmax_n": self.argmax_n,
            "grid": self.grid.to_json_dict(),
            "meta": self.meta,
            "per_n": [{"n": n, "sup": sup_n, "argmax_x": ax} for n, sup_n, ax in self.per_n],
        }


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail record for an inequality or identity sweep."""

    claim_id: str
    passed: bool
    worst_margin: float
    witness: dict[str, Any]
    samples_checked: int
    tolerance: float
    finding: bool | None = None  # set by exploratory (conjecture) scans
    details: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "kind": "verification",
            "claim_id": self.claim_id,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
            "samples_checked": self.samples_checked,
            "tolerance": self.tolerance,
            "details": self.details,
        }
        if self.finding is not None:
            d["finding"] = self.finding
        return d


def dump_json(obj: Any) -> str:
    """Serialize a report (or plain dict) deterministically.  A non-finite
    float raises ValueError: JSON has no Infinity or NaN."""
    d = obj.to_json_dict() if hasattr(obj, "to_json_dict") else obj
    return json.dumps(d, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_curves_csv(path: str, rows: Iterable[Sequence[Any]], header: Sequence[str] = ("n", "x", "value")) -> None:
    """Write curve samples as CSV with '.' decimals regardless of locale."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)  # csv writes a float as its repr
