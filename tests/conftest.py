"""Fixtures shared by the test modules."""

import math
import subprocess
import sys

import mpmath
import pytest

# Runs argv[1:] and prints its exit code and peak RSS (KiB on Linux).  The
# command starts from this small process rather than from pytest, because
# Linux carries the forking process's RSS high-water mark into the child's
# ru_maxrss.
PEAK_RSS = (
    "import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
    "_, status, usage = os.wait4(p.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


@pytest.fixture
def peak_rss():
    """run(code, *args) runs ``python -c code *args`` in a fresh process and
    returns its exit code and peak resident memory in MiB."""

    def run(code, *args):
        cmd = [sys.executable, "-c", PEAK_RSS, sys.executable, "-c", code, *args]
        res = subprocess.run(cmd, capture_output=True, text=True, check=True)
        exit_code, peak_kib = map(int, res.stdout.split())
        return exit_code, peak_kib / 1024

    return run


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the sweeps' multiprocessing.Pool by one that maps in this
    process; returns the list of process counts of the pools started."""
    from polya_bernstein import analysis

    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(a) for a in items]

    monkeypatch.setattr(analysis.multiprocessing, "Pool", SerialPool)
    return started


def _pmf_oracle(n, x, c):
    with mpmath.workdps(50):
        x, c = mpmath.mpf(x), mpmath.mpf(c)
        a, b, den = [mpmath.mpf(1)], [mpmath.mpf(1)], mpmath.mpf(1)
        for i in range(n):
            a.append(a[-1] * (x + i * c))      # x^(i+1,c)
            b.append(b[-1] * (1 - x + i * c))  # (1-x)^(i+1,c)
            den *= 1 + i * c
        return [float(math.comb(n, k) * a[k] * b[n - k] / den) for k in range(n + 1)]


@pytest.fixture(scope="session")
def pmf_oracle():
    """pmf_oracle(n, x, c) is the pmf of PolyaParams(n, x, 1-x, c) from its
    product definition in 50-digit arithmetic, independent of the library's
    rising products."""
    return _pmf_oracle
