"""The rascal benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify_formula --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds src/rascal.  One driver, one
closed-loop client, no threads: every pass of the workload runs in a
fresh worker process (worker.py), started only after the previous one
has exited, with imports done and every library memo empty -- what each
`rascal` invocation pays today.  Every output is checked (workloads.py).

--trace 0 measures for about --seconds seconds and reports the
end-to-end metrics named in BENCHMARK.json:
  wall_s       seconds one pass spends in its timed calls: the sum over
               operations of each one's median over the run's passes
  setup_s      median over spawns of the seconds from spawning a worker
               to its first timed call (interpreter start, import, input
               preparation); for cli_session, the latency of the trivial
               `rascal value 6 3`
  peak_rss_mb  median over passes of the worker's peak RSS (for
               cli_session, its largest `rascal` child)
Both times are in seconds at the host's uncontended speed: each is
divided by the slowdown a fixed reference loop measures right before and
after it (spawn.reference_s).  On a shared host the raw times move by a
third between quarter-hours; the raw times are printed as well.
fail_share (failed / attempted operations) is printed and carried in
the result's `failed` and `attempted`; it is 0 when the program is right,
so it is not a bounded metric.

--trace 1 runs one pass of every other workload and of the `layers`
probe, then passes of --workload until about --seconds have gone, each
in a fresh worker, and reports the per-layer metrics named in
BENCHMARK.json from the spans every pass records around the benchmark's
own calls into each layer, one span per batch, corrected for the host's
slowdown like wall_s (cli.import_ms is raw).  Spans are recorded after
each timed call, outside its interval, so they cost wall_s nothing;
trace.overhead_pct is the time spent building them as a share of the
timed seconds, the cost they would add inside the interval.

The last line of stdout is the JSON result.  Exits 2 without a result
when the checkout has no src/rascal to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from spawn import ROOT, reference_s, run_cli, run_python, slowdown

# Setup-only spawns per untraced run, PROBES_PER_PASS before each pass
# (setup_s is the noisiest metric, so it is a median over these spawns
# plus one per pass).
SETUP_SPAWNS = 15
PROBES_PER_PASS = 4
MIN_PASSES = 2
WORKER = os.path.join("perfbench", "worker.py")
SCALE = {"ms": 1e3, "us": 1e6, "ns": 1e9}


class Tally:
    """Operations attempted and failed over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int, errors=()) -> None:
        self.attempted += attempted
        self.failed += failed
        for line in errors:
            print(f"FAILED {line}", file=sys.stderr)


def spawn_worker(workload: str, seed: int, tally: Tally, setup_only: bool = False) -> dict | None:
    """One fresh worker; None (and one failed operation) if it crashed.
    Adds setup_ref_s, its setup time corrected for the host's slowdown."""
    args = [WORKER, workload, str(seed)]
    before = reference_s()
    code, out, err, _seconds = run_python(args + [repr(time.monotonic())] + (["--setup-only"] if setup_only else []))
    slow = slowdown(before, reference_s())
    try:
        if code != 0:
            raise ValueError(f"exit code {code}")
        res = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        tally.add(1, 1, [f"{workload} worker: {exc}: {err.decode()[-2000:]}"])
        return None
    res["setup_ref_s"] = res["setup_s"] / slow
    if setup_only:
        tally.add(1, 0)
    else:
        tally.add(res["attempted"], res["failed"], res["errors"])
    return res


def cli_setup_probe(tally: Tally) -> float:
    """Latency of `rascal value 6 3` in a fresh process, checked and
    corrected for the host's slowdown."""
    before = reference_s()
    code, out, _err, seconds = run_cli(["value", "6", "3"])
    slow = slowdown(before, reference_s())
    ok = code == 0 and out == b"10\n"
    tally.add(1, 0 if ok else 1, [] if ok else [f"rascal value 6 3 gave {code} {out!r}"])
    return seconds / slow


def workload_seconds(passes: list[dict], key: str = "op_ref_s") -> float:
    """Sum over the workload's operations of each one's median time
    across the run's fresh-process passes."""
    return sum(statistics.median(p[key][name] for p in passes) for name in passes[0][key])


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics: passes until time is up, with the setup-only
    spawns spread between them so setup_s samples the whole run."""
    deadline = time.monotonic() + seconds
    setups: list[float] = []

    def setup_probe() -> None:
        if workload == "cli_session":
            setups.append(cli_setup_probe(tally))
        else:
            res = spawn_worker(workload, seed, tally, setup_only=True)
            if res:
                setups.append(res["setup_ref_s"])

    passes: list[dict] = []
    spawned = 0
    last = 0.0
    # another pass starts unless it would overrun the deadline by more than
    # half a pass, so a run lasts about `seconds` on average
    while spawned < MIN_PASSES or time.monotonic() + last / 2 <= deadline:
        started = time.monotonic()
        for _ in range(min(PROBES_PER_PASS, SETUP_SPAWNS - len(setups))):
            setup_probe()
        res = spawn_worker(workload, seed, tally)
        last = time.monotonic() - started
        spawned += 1
        if res:
            passes.append(res)
            if workload != "cli_session":
                setups.append(res["setup_ref_s"])
    while len(setups) < SETUP_SPAWNS:
        setup_probe()
    if not passes or not setups:
        return {}
    walls = [sum(p["op_s"].values()) for p in passes]
    print(f"measured wall_s: {len(walls)} passes, each {[round(w, 4) for w in walls]} s, "
          f"sum of per-operation medians {workload_seconds(passes, 'op_s'):.4f} s")
    print(f"setup_s: {len(setups)} spawns, corrected min {min(setups):.4f} s, max {max(setups):.4f} s")
    return {
        "wall_s": workload_seconds(passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def trace_layers(workload: str, seed: int, seconds: float, tally: Tally, workloads: list[str]) -> dict:
    """Per-layer metrics: one pass of every other workload and of the
    layers probe, then passes of `workload` until `seconds` are up (one
    at least).  Spans are summed over all passes; work counts come from
    the first pass of each workload."""
    deadline = time.monotonic() + seconds
    passes = [spawn_worker(w, seed, tally) for w in workloads + ["layers"] if w != workload]
    last = 0.0
    while len(passes) < len(workloads) + 1 or time.monotonic() + last / 2 <= deadline:
        started = time.monotonic()
        passes.append(spawn_worker(workload, seed, tally))
        last = time.monotonic() - started
    if None in passes:
        return {}
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    for res in passes:
        for metric, span_s, units in res["spans"]:
            totals[metric][0] += span_s
            totals[metric][1] += units
    metrics: dict[str, float] = {}
    for metric, (span_s, units) in totals.items():
        unit = next(t for t in metric.rsplit(".", 1)[-1].split("_") if t in SCALE)
        metrics[metric] = span_s * SCALE[unit] / units
    for res in passes[: len(workloads) + 1]:
        metrics.update(res["counts"])
    metrics["cli.import_ms"] = statistics.median(r["import_s"] for r in passes) * 1e3
    timed_s = sum(sum(r["op_s"].values()) for r in passes)
    metrics["trace.overhead_pct"] = sum(r["span_s"] for r in passes) / timed_s * 100.0
    print(f"trace: {len(passes) - len(workloads)} passes of {workload}, one of each other workload and of layers")
    return metrics


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = got.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(ROOT, "src", "rascal"))):
        path = os.path.join(ROOT, "src", "rascal", name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                sources.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": sources.hexdigest(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "rascal", "__init__.py")):
        print("error: no src/rascal in this checkout; nothing to measure", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads}")

    print(f"env: {json.dumps(environment(args.seed))}")
    tally = Tally()
    if args.trace:
        got = trace_layers(args.workload, args.seed, args.seconds, tally, workloads)
        wanted = spec["per_layer"]
    else:
        got = measure(args.workload, args.seed, args.seconds, tally)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            metrics[m["name"]] = {"value": got[m["name"]], "unit": m["unit"]}
            print(f"{m['name']} = {got[m['name']]:.6g} {m['unit']}")
        else:
            print(f"{m['name']}: not measured", file=sys.stderr)
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"fail_share = {tally.failed}/{tally.attempted} = {share:.6g}")
    correct = tally.attempted > 0 and tally.failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
