"""Per-command costs of the benchmark's ``pbop`` commands.

    python3 tools/command_costs.py [--workloads scan-verify] [--seed 1]
                                   [--runs 5] [--workers 1] [SRC ...]

Runs every command of ``workloads.WORKLOADS`` (``perfbench/workloads.py``)
``--runs`` times, each run in a fresh process, with the library imported
from each SRC directory in turn (default: this checkout's ``src``).  With
several SRC directories the runs alternate between them, and so does which
one goes first, so each sees the same machine.  Every command is started
from a small launcher process that times it as ``perfbench/run.py`` does
(``perf_counter`` around ``Popen`` and ``wait4``) and reads its peak RSS and
minor page faults from ``wait4``: Linux carries the forking process's RSS
high-water mark into the child's ``ru_maxrss``, so a child forked from this
script, which has numpy loaded, could not read lower than it.  Each output
is checked by the workload's own check.

For each SRC it prints one Markdown table: per command, the number of runs,
the median and quartiles of the wall time (the benchmark's ``quantile``),
the median peak RSS and the median minor faults, and the failed checks.
The last row sums each run's commands, as one pass of the workload does,
with the largest RSS of the run.  Nothing under ``perfbench/`` is changed.
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
from run import PBOP, quantile  # noqa: E402

# Runs argv[2:] with stdout to argv[1] and prints [wall s, exit code, peak
# RSS KiB, minor faults] as JSON.
LAUNCHER = (
    "import json, os, subprocess, sys, time; out = open(sys.argv[1], 'wb'); "
    "t = time.perf_counter(); p = subprocess.Popen(sys.argv[2:], stdout=out); "
    "_, status, usage = os.wait4(p.pid, 0); wall = time.perf_counter() - t; "
    "print(json.dumps([wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt]))"
)

# One run of one command: wall seconds, peak RSS in KiB, minor faults, and
# whether its output failed the workload's check.
Sample = tuple[float, int, int, bool]


def cost_table(runs: list[dict[str, Sample]]) -> list[tuple]:
    """(command, runs, wall p25, p50, p75, median RSS MiB, median minor
    faults, failed checks) per command, then an "all" row over each run's
    sum of walls and of faults and its largest RSS.  runs holds one
    {command: sample} dict per run, every run with the same commands."""
    columns = {name: [run[name] for run in runs] for name in runs[0]}
    columns["all"] = [(sum(s[0] for s in run.values()), max(s[1] for s in run.values()),
                       sum(s[2] for s in run.values()), any(s[3] for s in run.values()))
                      for run in runs]
    rows = []
    for name, got in columns.items():
        walls = [s[0] for s in got]
        rows.append((name, len(got), quantile(walls, 25), quantile(walls, 50), quantile(walls, 75),
                     quantile([s[1] / 1024 for s in got], 50), quantile([s[2] for s in got], 50),
                     sum(s[3] for s in got)))
    return rows


def run_command(src: Path, op: workloads.Op, workers: str, tmp: Path) -> Sample:
    """One fresh ``pbop`` process of op, run as the benchmark's --workers
    pass of that count runs it."""
    args = op.args + (["--workers", workers] if op.takes_workers else [])
    out = tmp / f"{op.key}.out"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", LAUNCHER, str(out), sys.executable, "-c", PBOP, *args],
                         env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    wall, code, rss_kib, minflt = json.loads(res.stdout)
    try:
        failed = op.check(code, out.read_text()) is not None
    except Exception:  # a check that cannot read the output is a failure
        failed = True
    return wall, rss_kib, minflt, failed


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*", type=Path, default=[ROOT / "src"])
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=5, help="fresh processes per command and SRC")
    ap.add_argument("--workers", default="1", choices=["1", "2"])
    args = ap.parse_args(argv)
    srcs = [src.resolve() for src in args.src]
    runs: dict[Path, list[dict[str, Sample]]] = {src: [] for src in srcs}
    with tempfile.TemporaryDirectory(prefix="command-costs-") as tmp:
        ops = [op for name in args.workloads for op in workloads.WORKLOADS[name][0](Path(tmp), args.seed)]
        for i in range(args.runs):
            for src in srcs if i % 2 == 0 else srcs[::-1]:
                runs[src].append({op.key: run_command(src, op, args.workers, Path(tmp)) for op in ops})
    for src, got in runs.items():
        print(f"\n{src}: workloads {' '.join(args.workloads)}, seed {args.seed}, "
              f"--workers {args.workers}, {args.runs} run(s)\n")
        print("| Command | Runs | Wall p50 [p25, p75] | Peak RSS | Minor faults | Failed |\n"
              "|---|---|---|---|---|---|")
        for name, count, p25, p50, p75, rss, faults, failed in cost_table(got):
            print(f"| {name} | {count} | {p50:.3f} s [{p25:.3f}, {p75:.3f}] | {rss:.2f} MiB "
                  f"| {faults:.0f} | {failed} |")


if __name__ == "__main__":
    main()
