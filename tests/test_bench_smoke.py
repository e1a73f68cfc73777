"""Smoke run of every benchmark workload, so the harness cannot rot.

Each workload runs in smoke mode (minimum sizes, every output check, no
timing claims) in its own process, as `python3 bench/run.py` would.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--smoke", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout
