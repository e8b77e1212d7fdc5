"""One fresh process that runs one pass of one workload.

Started by run.py as

    python perfbench/worker.py WORKLOAD SEED SPAWNED_AT [--setup-only]

with PYTHONPATH=src.  SPAWNED_AT is the driver's time.monotonic() just
before the spawn (CLOCK_MONOTONIC is system-wide on Linux), so setup_s
covers interpreter start, `import rascal` and input preparation.  Prints
one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    workload, seed, spawned_at = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    start = time.monotonic()
    import rascal.cli  # noqa: F401  (the whole package, CLI included)

    import_s = time.monotonic() - start
    import workloads

    golden = workloads.load_golden()
    ops = workloads.build(workload, seed)
    setup_s = time.monotonic() - spawned_at
    out: dict = {"setup_s": setup_s, "import_s": import_s}
    if "--setup-only" not in sys.argv:
        res = workloads.run_pass(workload, ops, golden)
        # a workload that runs the CLI peaks in its children, not in this process
        who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
        out.update(
            op_s=res.op_seconds,
            op_ref_s=res.op_ref_seconds,
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
            attempted=res.attempted,
            failed=res.failed,
            errors=res.errors[:20],
            counts=dict(res.counts),
            spans=res.spans,
            span_s=res.span_seconds,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
