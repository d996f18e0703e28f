"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --runs 10 [--trace 0|1] [--workload NAME ...] [--out FILE]

Run from the root of a checkout.  For every workload and metric it prints
the median of the runs, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median; with ``--out`` it writes the same, with the machine
facts, as JSON.  Seeds are 1..runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import machine_facts


def main() -> None:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {"machine": machine_facts(), "run_seconds": bench["run_seconds"],
               "runs": args.runs, "trace": args.trace, "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            result = json.loads(res.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect output\n{res.stdout}")
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        rows = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{name:17s} {metric:42s} median {med:12.6g}  spread {spread:7.2%}", flush=True)
        summary["workloads"][name] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
