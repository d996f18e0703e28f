"""Report types shared by the scanners and the CLI, and the one n rule of
every sweep over n.

ScanReport and VerificationReport serialize to a stable, versioned JSON
schema (``schema: 1``); per-n curves export to CSV with header ``n,x,value``.
Serialization is deterministic: keys are sorted and floats use repr, so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

__all__ = ["GridSpec", "ScanReport", "VerificationReport", "dump_json", "write_curves_csv"]

SCHEMA_VERSION = 1
# How far inside each half-open piece a scan grid samples the one-sided
# limit at a jump of the scanned function.
BREAKPOINT_OFFSET = 1e-9
# The largest n of any sweep over n: sup scans, ratio scans and verifiers.
N_MAX = 200


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
    """Deterministic 1-D evaluation grid on [0,1].

    points is the number of uniform base grid points; scanners add samples
    BREAKPOINT_OFFSET inside each half-open piece of the scanned function,
    which reports record as ``refine_breakpoints``.
    """

    points: int = 10001

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.points}")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "points": self.points,
            "refine_breakpoints": True,
            "breakpoint_offset": BREAKPOINT_OFFSET,
        }


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
    def from_per_n(
        cls, per_n: Sequence[tuple[int, float, float]], grid: GridSpec, meta: dict[str, Any]
    ) -> ScanReport:
        """The report of a scan over n from its (n, sup_n, argmax_x_n) rows in
        n order.  The global sup is the first largest per-n sup, so ties break
        lexicographically on (n, x) when each row keeps its first maximiser."""
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
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
