"""Record perfbench/golden.json: the output digests and work counts that
every later benchmark run is checked against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run it only at a commit whose outputs are known to be right (the tests
pass and `rascal verify all` shows only the documented discrepancy).
It refuses to write when an independent check fails, or when two seeds
disagree on a digest or a work count.
"""

from __future__ import annotations

import json
import sys

import workloads


def record(seed: int) -> tuple[dict, dict]:
    digests: dict = {}
    counts: dict = {}
    for workload in workloads.WORKLOADS + ("layers",):
        res = workloads.run_pass(workload, workloads.build(workload, seed), None)
        if res.failed:
            sys.exit(f"{workload}: {res.failed} failed operations: {res.errors[:5]}")
        digests.update(res.digests)
        if res.counts:
            counts[workload] = dict(res.counts)
        print(f"{workload}: {res.attempted} operations, {res.wall_s:.2f} s, counts {dict(res.counts)}")
    return digests, counts


def main() -> int:
    first = record(0)
    if record(1) != first:
        sys.exit("digests or work counts depend on the seed; not recording")
    digests, counts = first
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"digests": digests, "counts": counts}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
