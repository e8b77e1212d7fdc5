"""Starting the fresh processes the benchmark times, and the reference
loop that corrects its times for contention on a shared host.

Shared by the driver (run.py) and the worker (worker.py).  Imports no
rascal module, so the driver stays free of the library it measures.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# What the `rascal` console script runs; the package is not installed, so
# the CLI is started the way the tier-1 suite imports it: PYTHONPATH=src.
CLI_ENTRY = "import sys\nfrom rascal.cli import main\nsys.exit(main())"

# Longest a single child may run before it is killed and counted as failed.
CHILD_TIMEOUT_S = 150

# Seconds reference_s() takes on an uncontended core of the machine the
# benchmark was defined on (Intel Xeon, 2 vCPUs, Python 3.11.7).
REFERENCE_S = 0.0017


def reference_s() -> float:
    """Best of three runs of a fixed pure-Python loop doing the dict,
    tuple and small-integer work the library does, in seconds.

    Neighbours on a shared host slow every process on it by up to 60%
    for tens of seconds at a time.  A time divided by slowdown(), with the
    reference measured right next to it, reads in seconds at the speed
    the host has when uncontended; raw timings are printed alongside.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table: dict = {}
        for i in range(2000):
            key = (i % 31, i & 7)
            table[key] = table.get(key, 0) + sum(1 for a, b in zip(key, key[1:]) if a < b) + i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def slowdown(before: float, after: float) -> float:
    """How much slower than uncontended the host ran between two
    reference_s() readings."""
    return (before + after) / 2 / REFERENCE_S


def child_env() -> dict[str, str]:
    """The caller's environment with src/ first on PYTHONPATH and no cap
    override, so every child computes the same golden outputs."""
    env = dict(os.environ)
    env.pop("RASCAL_MAX_CELLS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(args: list[str]) -> tuple[int, bytes, bytes, float]:
    """Run `python <args>` from the checkout root and wait for it.

    Returns (exit code, stdout, stderr, seconds from spawn to exit).
    A child that outlives CHILD_TIMEOUT_S is killed and reported as
    exit code -9.
    """
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return -9, exc.stdout or b"", exc.stderr or b"", time.perf_counter() - start
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


def run_cli(argv: list[str]) -> tuple[int, bytes, bytes, float]:
    """One `rascal <argv>` invocation in its own process."""
    return run_python(["-c", CLI_ENTRY, *argv])
