"""Per-kind latencies of the benchmark's point queries.

    python3 tools/query_kinds.py [--seeds 101 102 103] [--runs 1] [SRC ...]

Runs the point queries of ``workloads.make_queries(seed)`` through
``perfbench/child.py queries``, the benchmark's query runner, one fresh
process per seed and run, with the library imported from each SRC directory
in turn (default: this checkout's ``src``).  With several SRC directories
the runs alternate between them, so each sees the same machine.  For each
SRC it prints one Markdown table: per kind of query, and per profile of the
kinds that take one, the number of queries, their p50 and p99 (the
benchmark's ``quantile``) and the share of the SRC's slowest 1% of queries
that is of this kind.  Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from run import quantile  # noqa: E402


def labels(q: dict) -> list[str]:
    """The rows a query counts in: its kind, and its kind with its profile."""
    profile = q.get("profile") or q.get("c_mode")
    return [q["kind"]] + ([f"{q['kind']}[{profile}]"] if profile else [])


def kind_table(samples: list[tuple[list[str], float]]) -> list[tuple[str, int, float, float, float]]:
    """(label, count, p50, p99, share of the slowest 1%) per label, sorted by
    label, from (labels, latency) samples; the slowest 1% is the len // 100
    (at least one) largest latencies over all samples."""
    by_label: dict[str, list[float]] = {}
    for names, lat in samples:
        for name in names:
            by_label.setdefault(name, []).append(lat)
    ranked = sorted(samples, key=lambda s: s[1], reverse=True)
    slowest = ranked[: max(1, len(samples) // 100)]
    rows = []
    for name in sorted(by_label):
        lats = by_label[name]
        share = sum(name in names for names, _ in slowest) / len(slowest)
        rows.append((name, len(lats), quantile(lats, 50), quantile(lats, 99), share))
    return rows


def run_queries(src: Path, queries: Path, out: Path) -> list[float]:
    """Latencies in seconds of one fresh ``child.py queries`` process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), "queries",
                    str(queries), str(out)], env=env, check=True)
    return [ns / 1e9 for ns in json.loads(out.read_text())["lat_ns"]]


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"])
    ap.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    ap.add_argument("--runs", type=int, default=1, help="fresh processes per seed and SRC")
    args = ap.parse_args(argv)
    samples: dict[Path, list[tuple[list[str], float]]] = {src: [] for src in args.src}
    with tempfile.TemporaryDirectory(prefix="query-kinds-") as tmp:
        for seed in args.seeds:
            queries = workloads.make_queries(seed)
            path = Path(tmp) / f"queries-{seed}.json"
            path.write_text(json.dumps(queries))
            for _ in range(args.runs):
                for src in args.src:
                    lats = run_queries(src.resolve(), path, Path(tmp) / "out.json")
                    samples[src] += [(labels(q), lat) for q, lat in zip(queries, lats)]
    for src, got in samples.items():
        print(f"\n{src}: {len(got)} queries, seeds {args.seeds}, {args.runs} run(s) each\n")
        print("| Kind | Queries | p50 | p99 | Share of slowest 1% |\n|---|---|---|---|---|")
        for name, count, p50, p99, share in kind_table(got):
            print(f"| {name} | {count} | {p50 * 1e6:.1f} µs | {p99 * 1e6:.0f} µs | {share:.0%} |")
        every = [lat for _, lat in got]
        print(f"| all | {len(every)} | {quantile(every, 50) * 1e6:.1f} µs "
              f"| {quantile(every, 99) * 1e6:.0f} µs | 100% |")


if __name__ == "__main__":
    main()
