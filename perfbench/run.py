"""Benchmark of the polya_bernstein library and its ``pbop`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``.
The workloads and metrics are listed, with the reason for each, in
``BENCHMARK.json``; inputs, commands and output checks are in
``workloads.py``.

With ``--trace 0`` the run alternates passes at ``--workers 1`` and
``--workers 2`` for S seconds, each command in a fresh process, and reports
the end-to-end metrics.  With ``--trace 1`` it alternates untraced passes
with traced passes (``--workers 1``, spans from ``tracer.py``) and reports
the per-layer metrics; the traced spans of the last pass are kept in
``.bench_work/traces/``.  A pass starts only if the last pass of its kind
would still end within S seconds, but one pass of each kind always runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
repeat the metrics for people, with sample counts and machine facts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from tracer import summarize

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 2  # before the first pass; one more is taken before every pass
KILL_AFTER_S = 150.0
# What the pbop console script does.
PBOP = "import sys; from polya_bernstein.cli import main; sys.exit(main())"
SETUP = ("import time; t = time.perf_counter(); import polya_bernstein.cli as m; "
         "print(time.perf_counter() - t, m.__file__)")


@dataclass
class Pass:
    wall_s: float = 0.0
    rss_kb: int = 0
    latencies_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: dict | None = None


class Runner:
    def __init__(self, root: Path, tmp: Path, workload: str, seed: int):
        self.root, self.tmp, self.workload = root, tmp, workload
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.errors: list[str] = []
        self.traces = root / ".bench_work" / "traces"
        make_ops, with_queries = workloads.WORKLOADS[workload]
        self.ops = make_ops(tmp, seed)
        self.queries = workloads.make_queries(seed) if with_queries else []
        if self.queries:
            self.query_file = tmp / "queries.json"
            self.query_file.write_text(json.dumps(self.queries))
            self.expected = [workloads.query_reference(q) for q in self.queries]

    def spawn(self, argv: list[str], stdout: Path, env: dict | None = None) -> tuple[float, int, int]:
        """Run a child to completion; return (wall seconds, exit code, peak RSS in KiB)."""
        with open(stdout, "wb") as out, open(self.tmp / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env or self.env, cwd=self.root)
            timer = threading.Timer(KILL_AFTER_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def setup_sample(self) -> float:
        """Seconds a fresh interpreter takes to import polya_bernstein.cli from src/."""
        out = self.tmp / "setup.txt"
        _, code, _ = self.spawn([sys.executable, "-c", SETUP], out)
        text = out.read_text().split()
        src = (self.root / "src").resolve()
        if code != 0 or not Path(text[1]).resolve().is_relative_to(src):
            raise SystemExit(f"importing polya_bernstein.cli from {src} failed")
        return float(text[0])

    def run_pass(self, mode: str) -> Pass:
        """mode: "w1", "w2" or "traced" (which runs at --workers 1).

        Latencies are those of the point queries where the workload has
        them, else those of the commands."""
        p = Pass(layers={} if mode == "traced" else None)
        workers = "2" if mode == "w2" else "1"
        for op in self.ops:
            args = op.args + (["--workers", workers] if op.takes_workers else [])
            out = self.tmp / f"{op.key}.out"
            if mode == "traced":
                spans = self.tmp / "spans.jsonl"
                argv = [sys.executable, str(HERE / "child.py"), "cli", str(spans), *args]
            else:
                argv = [sys.executable, "-c", PBOP, *args]
            wall, code, rss = self.spawn(argv, out)
            p.wall_s += wall
            p.rss_kb = max(p.rss_kb, rss)
            p.latencies_s.append(wall)
            p.attempted += 1
            if mode == "traced":
                _merge(p.layers, summarize(str(spans)))
                shutil.copyfile(spans, self.traces / f"{self.workload}.{op.key}.jsonl")
            try:
                err = op.check(code, out.read_text())
            except Exception as exc:  # a check that cannot read the output is a failure
                err = f"check raised {type(exc).__name__}: {exc}"
            if err:
                p.failed += 1
                self.errors.append(f"{op.key}: {err}")
        if self.queries:
            self._query_pass(mode, p)
        return p

    def _query_pass(self, mode: str, p: Pass) -> None:
        out = self.tmp / "results.json"
        argv = [sys.executable, str(HERE / "child.py"), "queries", str(self.query_file), str(out)]
        spans = self.tmp / "spans.jsonl"
        if mode == "traced":
            argv.append(str(spans))
        # See workloads.py for what a --workers 2 pass means here.
        env = dict(self.env, PB_WORKERS="2") if mode == "w2" else None
        _, code, rss = self.spawn(argv, self.tmp / "stdout.txt", env)
        p.rss_kb = max(p.rss_kb, rss)
        p.attempted += len(self.queries)
        if code != 0:
            p.failed += len(self.queries)
            self.errors.append(f"queries: child exited with {code}")
            return
        res = json.loads(out.read_text())
        p.wall_s += res["wall_s"]
        p.latencies_s = [ns / 1e9 for ns in res["lat_ns"]]
        for q, got, err, want in zip(self.queries, res["results"], res["errors"], self.expected):
            if err is None and abs(got - want) <= workloads.ABS_TOL:
                continue
            p.failed += 1
            self.errors.append(err or f"{q} gave {got!r}, oracle {want!r}")
        if mode == "traced":
            _merge(p.layers, summarize(str(spans)))
            shutil.copyfile(spans, self.traces / f"{self.workload}.queries.jsonl")


def _merge(total: dict, part: dict) -> None:
    for name, fields in part.items():
        dst = total.setdefault(name, {})
        for k, v in fields.items():
            dst[k] = dst.get(k, 0) + v


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by linear interpolation between order statistics."""
    if len(values) < 2:
        return values[0] if values else 0.0  # 0.0: every operation failed
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version()}
    for pkg in ("numpy", "scipy", "click"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = None
    return facts


def measure(runner: Runner, modes: tuple[str, str], seconds: float) -> tuple[dict[str, list[Pass]], list[float]]:
    """Alternate passes of the two modes for about ``seconds``; set-up is
    sampled between passes so that it sees the same machine as they do."""
    passes: dict[str, list[Pass]] = {m: [] for m in modes}
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    last: dict[str, float] = {}
    start = time.perf_counter()
    for i in itertools.count():
        mode = modes[i % 2]
        if i >= 2 and time.perf_counter() - start + last[mode] > seconds:
            break
        t = time.perf_counter()
        setup.append(runner.setup_sample())
        passes[mode].append(runner.run_pass(mode))
        last[mode] = time.perf_counter() - t
    return passes, setup


def end_to_end(runner: Runner, passes: dict[str, list[Pass]], setup: list[float]) -> dict:
    w1, w2 = passes["w1"], passes["w2"]
    lat = [s for p in w1 for s in p.latencies_s]
    values = {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters importing polya_bernstein.cli"),
        "wall_s": (statistics.median(p.wall_s for p in w1), f"median of {len(w1)} passes, --workers 1"),
        "wall_s_w2": (statistics.median(p.wall_s for p in w2), f"median of {len(w2)} passes, --workers 2"),
        "peak_rss_mb": (statistics.median(p.rss_kb for p in w1) / 1024, f"median over {len(w1)} passes of the largest process"),
        "query_p50_us": (quantile(lat, 50) * 1e6, f"{len(lat)} {'queries' if runner.queries else 'commands'}"),
        "query_p99_us": (quantile(lat, 99) * 1e6, f"{len(lat)} samples"),
    }
    return values


def per_layer(bench: dict, passes: dict[str, list[Pass]]) -> dict:
    traced, plain = passes["traced"], passes["w1"]
    traced_wall = statistics.median(p.wall_s for p in traced)
    plain_wall = statistics.median(p.wall_s for p in plain)
    values = {}
    for m in bench["per_layer"]:
        name = m["name"]
        if name == "trace.wall_s":
            values[name] = (traced_wall, f"median of {len(traced)} traced passes")
        elif name == "trace.untraced_wall_s":
            values[name] = (plain_wall, f"median of {len(plain)} untraced passes")
        elif name == "trace.overhead_s":
            values[name] = (traced_wall - plain_wall, "traced minus untraced wall_s")
        else:
            layer, fld = name.rsplit(".", 1)
            vals = [p.layers.get(layer, {}).get(fld, 0) for p in traced]
            note = f"median of {len(traced)} traced passes"
            if fld not in ("s", "self_s"):
                note = f"computed count, {'repeats' if len(set(vals)) == 1 else 'DIFFERS'} across passes"
            values[name] = (statistics.median(vals), note)
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polya_bernstein" / "cli.py").is_file():
        print(f"no polya_bernstein sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    (root / ".bench_work" / "traces").mkdir(parents=True, exist_ok=True)
    # A fixed path relative to the root: it appears in reports (the --fn-csv
    # name), so their sizes repeat from run to run and checkout to checkout.
    tmp = Path(".bench_work") / args.workload
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        runner = Runner(root, tmp, args.workload, args.seed)
        modes = ("w1", "traced") if args.trace else ("w1", "w2")
        passes, setup = measure(runner, modes, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    all_passes = [p for ps in passes.values() for p in ps]
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    if args.trace:
        values = per_layer(bench, passes)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = end_to_end(runner, passes, setup)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    seeded = args.workload in workloads.SEEDED
    print(f"# workload {args.workload}, seed {args.seed} "
          f"({'inputs drawn from the seed' if seeded else 'fixed commands: the seed is ignored'}), "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# machine " + json.dumps(machine_facts(), sort_keys=True))
    for name, (value, note) in values.items():
        print(f"{name:42s} {value:14.6g} {units[name]:6s} ({note})")
    print(f"{'fail_frac':42s} {failed / attempted:14.6g} {'frac':6s} ({failed} of {attempted} operations failed)")
    for err in sorted(set(runner.errors))[:20]:
        print(f"# FAILED {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
