"""The benchmark's `layers` probe, run in a fresh process as the benchmark
runs it, so that a change which breaks the probe or moves one of its
golden digests fails here and not only in a traced benchmark run."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layers_probe_passes():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("RASCAL_MAX_CELLS", None)
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "layers", "1", str(time.monotonic())],
        cwd=ROOT, capture_output=True, env=env, timeout=300, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert (result["failed"], result["errors"]) == (0, [])
