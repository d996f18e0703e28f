"""Child processes of the benchmark.

    python3 perfbench/child.py cli SPANS ARG...
        Run one ``pbop`` command through ``polya_bernstein.cli.main`` with
        every public library function traced; write the spans to SPANS.
    python3 perfbench/child.py queries QUERIES OUT [SPANS]
        Run the point queries listed in the JSON file QUERIES one at a time
        in this process, timing each; write results and latencies to OUT
        and, when SPANS is given, trace them as above.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def _call(q, polya_bernstein):
    """A zero-argument callable for one query; building its arguments is not timed."""
    pb = polya_bernstein
    kind, n, x = q["kind"], q["n"], q["x"]
    if kind in ("polya_operator_eval", "bernstein_eval"):
        f = pb.builtin_function(q["fn"])
        if kind == "bernstein_eval":
            return lambda: pb.operators.bernstein_eval(f, n, x)
        profile = pb.CProfile(q["profile"], q.get("c", 0.0))
        return lambda: pb.operators.polya_operator_eval(f, n, x, profile)
    if kind == "f_n_c":
        return lambda: pb.analysis.f_n_c(n, x, q["c"])
    if kind == "sikkema_function":
        return lambda: pb.analysis.sikkema_function(n, x, q["c_mode"])
    params = pb.PolyaParams(n, x, 1.0 - x, q["c"])
    method = kind.rsplit(".", 1)[1]
    return lambda: pb.polya.truncated_first_moment(params, q["r"], method)


def run_queries(queries_path: str, out_path: str, spans_path: str | None) -> None:
    tracer = Tracer() if spans_path else None
    if tracer:
        tracer.install()
    import polya_bernstein

    with open(queries_path) as fh:
        queries = json.load(fh)
    calls = [_call(q, polya_bernstein) for q in queries]
    warm = {}
    for q, call in zip(queries, calls):
        warm.setdefault(q["kind"], call)
    for call in warm.values():  # first-call costs are not what a query pays
        try:
            call()
        except Exception:  # the timed loop records the failure
            pass
    if tracer:
        tracer.spans.clear()
        tracer.counts.clear()
    clock = time.perf_counter_ns
    lat, results, errors = [], [], []
    t0 = clock()
    for call in calls:
        start = clock()
        try:
            value = float(call())
            err = None
        except Exception as exc:  # a failed query is counted, not fatal
            value, err = None, f"{type(exc).__name__}: {exc}"
        lat.append(clock() - start)
        results.append(value)
        errors.append(err)
    wall = (clock() - t0) / 1e9
    if tracer:
        tracer.dump(spans_path)
    with open(out_path, "w") as fh:
        json.dump({"wall_s": wall, "lat_ns": lat, "results": results, "errors": errors}, fh)


def run_cli(spans_path: str, args: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    import polya_bernstein.cli as cli

    try:
        cli.main(args)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3:]))
    elif mode == "queries":
        run_queries(sys.argv[2], sys.argv[3], sys.argv[4] if len(sys.argv) > 4 else None)
    else:
        sys.exit(f"unknown mode {mode!r}")
