"""In-process spans around the library's public functions.

``install`` replaces every public function of ``numeric_core``, ``polya``,
``operators``, ``analysis`` and ``reports`` (plus ``analysis.sikkema_curve``
and ``cli.main``) by a timing wrapper, at every module attribute that binds
it: ``from .polya import pmf_matrix`` copies the name into ``operators``, so
wrapping ``polya.pmf_matrix`` alone would miss the calls made through
``operators.pmf_matrix``.

Spans are kept in memory as ``(name, parent, start_ns, end_ns, self_ns)``
and written out once, by :meth:`Tracer.dump`.  Self time is a span's
duration minus the durations of its direct child spans.  Calls run on one
thread, so a stack gives each span its parent.  Spans recorded inside pool
workers would be lost, so traced commands run with ``--workers 1``.

Work counts are computed from the arguments and results outside the timed
part of each span.  They depend only on the inputs, so they repeat exactly.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("numeric_core", "polya", "operators", "analysis", "reports", "cli")
EXTRA = {"analysis": ("sikkema_curve",), "cli": ("main",)}


def _fnc_cells(a, out):
    xs = np.asarray(a["xs"], dtype=float)
    return {"cells": a["n"] * int(np.count_nonzero(xs > 1.0 / math.sqrt(a["n"])))}


def _pmf_matrix_cells(a, out):
    return {"cells": (a["n"] + 1) * int(np.atleast_1d(np.asarray(a["x"])).size)}


def _samples(a, out):
    return {"samples": int(out.samples_checked)}


def _csv_rows(a, out):
    with open(a["path"], newline="") as fh:
        return {"rows": sum(1 for _ in fh) - 1}


# span name -> counts computed from (bound arguments, result)
COUNTERS = {
    "analysis.f_n_c_curve": _fnc_cells,
    "polya.pmf_matrix": _pmf_matrix_cells,
    "analysis.verify_lemma_claim": _samples,
    "analysis.verify_kozniewska": _samples,
    "analysis.conjecture_scan": _samples,
    "operators.modulus_of_continuity": lambda a, out: {"points": a["resolution"] + 1},
    "reports.write_curves_csv": _csv_rows,
    "reports.dump_json": lambda a, out: {"bytes": len(out.encode())},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[list[int]] = []  # [span index, child ns]

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0]
            spans.append(None)  # reserve the slot so children see their parent's index
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[frame[0]] = (name, parent, start, end, dur - frame[1])
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, out).items():
                    self.counts[name][key] += value
            return out

        return wrapper

    def install(self) -> None:
        import polya_bernstein
        import polya_bernstein.cli  # noqa: F401  (registers the module)

        mods = {m: sys.modules[f"polya_bernstein.{m}"] for m in MODULES}
        names = {}
        for short, mod in mods.items():
            for attr in (*getattr(mod, "__all__", ()), *EXTRA.get(short, ())):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self.wrap(fn, name) for fn, name in names.items()}
        for mod in (polya_bernstein, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, then one line with the counts."""
        with open(path, "w") as fh:
            for i, (name, parent, start, end, self_ns) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "self_ns": self_ns}) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def summarize(path: str) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds ``s``, ``self_s``, ``calls`` and the
    computed work counts, from a file written by :meth:`Tracer.dump`."""
    layers: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if "counts" in rec:
                for name, counts in rec["counts"].items():
                    layers[name].update(counts)
                continue
            layer = layers[rec["name"]]
            layer["s"] += (rec["end_ns"] - rec["start_ns"]) / 1e9
            layer["self_s"] += rec["self_ns"] / 1e9
            layer["calls"] += 1
    return layers
