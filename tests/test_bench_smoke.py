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


def _assert_smoke_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--smoke", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_smoke_run_is_correct(workload):
    _assert_smoke_run_is_correct(workload, "0")


def test_traced_smoke_run_is_correct():
    # the tracer rebinds every package function it names, so a renamed or
    # deleted one fails here
    _assert_smoke_run_is_correct("classify-sweep", "1")
