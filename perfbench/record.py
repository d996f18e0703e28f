"""Write references.json: the library's outputs for the benchmark's fixed commands.

    python3 perfbench/record.py

Run from the root of a checkout.  The references hold what the library
reports, not what a test or the paper expects; re-record them only in a
change that means to change those outputs, and say so.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import workloads
from run import PBOP


def pbop(args: list[str]) -> tuple[int, dict]:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    res = subprocess.run([sys.executable, "-c", PBOP, *args, "--workers", "1"],
                         capture_output=True, text=True, env=env, check=False)
    return res.returncode, json.loads(res.stdout)


def per_n(report: dict) -> dict:
    return {"per_n": [[e["n"], e["sup"]] for e in report["per_n"]]}


def main() -> None:
    refs = {"sikkema-scan": per_n(pbop(workloads.SIKKEMA_ARGS)[1]), "verify-sweep": {}, "operator-profile": {}}
    for key, args in workloads.VERIFY_OPS.items():
        code, payload = pbop(args)
        if code != 0:
            sys.exit(f"{args} exited with {code}")
        refs["verify-sweep"][key] = workloads.verify_summary(payload)
    for fn, op in workloads.PROFILE_SCANS:
        if fn != "table":  # the table is drawn from the seed; checked by the oracle alone
            args = ["scan", "--popoviciu", "--fn", fn, "--op", op,
                    "--n", workloads.PROFILE_N, "--points", workloads.PROFILE_POINTS]
            refs["operator-profile"][f"scan-{fn}-{op}"] = per_n(pbop(args)[1])
    text = json.dumps(refs, indent=1, sort_keys=True)
    text = re.sub(r"\[\s+(\S+),\s+(\S+)\s+\]", r"[\1, \2]", text)  # one line per (n, sup)
    workloads.REFERENCES.write_text(text + "\n")


if __name__ == "__main__":
    main()
