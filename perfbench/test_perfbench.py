"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Run from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

COUNT_FIELDS = {"calls", "cells", "samples", "points", "rows", "bytes"}
SMALL_COMMANDS = [
    ["scan", "--sikkema", "--n", "2..30", "--points", "1001", "--c-mode", "rn", "--workers", "1"],
    ["scan", "--popoviciu", "--fn", "sqrt", "--op", "rn", "--n", "2..8", "--points", "1001", "--workers", "1"],
    ["verify", "--lemma", "--conjecture", "--n", "2..6", "--points", "1001", "--workers", "1"],
]


def _counts(layers: dict) -> dict:
    return {name: {k: v for k, v in f.items() if k in COUNT_FIELDS} for name, f in layers.items()}


def _traced(args: list[str], spans: Path, tmp: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
                         cwd=tmp, env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return summarize(str(spans))


@pytest.mark.parametrize("command", SMALL_COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_cli_counts_repeat_exactly(command, tmp_path):
    spans = tmp_path / "spans.jsonl"
    first, second = (_counts(_traced(["cli", str(spans), *command], spans, tmp_path)) for _ in range(2))
    assert first == second
    assert any(COUNT_FIELDS - {"calls"} & set(f) for f in first.values())


def test_query_counts_repeat_exactly(tmp_path):
    queries = tmp_path / "q.json"
    queries.write_text(json.dumps(workloads.make_queries(7)[:60]))
    spans, out = tmp_path / "spans.jsonl", tmp_path / "out.json"
    args = ["queries", str(queries), str(out), str(spans)]
    first, second = (_counts(_traced(args, spans, tmp_path)) for _ in range(2))
    assert first == second
    assert first["polya.pmf"]["calls"] > 0


def test_queries_come_from_the_seed():
    assert workloads.make_queries(3) == workloads.make_queries(3)
    assert workloads.make_queries(3) != workloads.make_queries(4)
    ns = sorted(q["n"] for q in workloads.make_queries(3) if q["kind"] == "f_n_c")
    assert ns[0] >= 2 and ns[-1] <= workloads.QUERY_N_MAX
    assert len(ns) == workloads.QUERIES_PER_KIND


def test_self_time_excludes_child_spans(tmp_path):
    import time

    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.02), "m.inner")
    outer = tracer.wrap(lambda: (time.sleep(0.01), inner()), "m.outer")
    outer()
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    layers = summarize(str(path))
    o, i = layers["m.outer"], layers["m.inner"]
    assert o["s"] == pytest.approx(o["self_s"] + i["s"], abs=1e-9)
    assert 0.009 < o["self_s"] < i["s"]


def test_sikkema_check_accepts_the_library_and_rejects_changes(tmp_path):
    from polya_bernstein import analysis
    from polya_bernstein.reports import GridSpec

    (op,) = workloads.sikkema_scan(tmp_path, 0)
    ref = json.loads(workloads.REFERENCES.read_text())["sikkema-scan"]["per_n"]
    n, sup = max(ref, key=lambda e: e[1])
    x = analysis.scan_sup([n], "rn", GridSpec(points=2001)).argmax_x
    report = {"sup": sup, "argmax_n": n, "argmax_x": x,
              "per_n": [{"n": m, "sup": s, "argmax_x": 0.5} for m, s in ref]}
    assert op.check(0, json.dumps(report)) is None
    assert "oracle" in op.check(0, json.dumps(dict(report, argmax_x=0.5)))
    report["per_n"][0]["sup"] *= 1 + 1e-6
    assert "differs from reference" in op.check(0, json.dumps(report))
    assert op.check(2, "") == "exit code 2"
