"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

They run every workload in smoke mode (minimum sizes, every output
check) and check the result format against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import reference as ref  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def smoke(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--smoke",
               "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    path = next(l.split(": ", 1)[1] for l in lines
                if l.startswith("result file: "))
    return last, json.loads(Path(path).read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    last, result = smoke(workload, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], result["wrong_outputs"]
    assert last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert result["machine"]["nproc"] >= 1
    assert result["sizes"]["seeds.max_entry_bits"] >= 1
    assert not result["unlocked_outputs"]


def test_known_defects_are_counted():
    last, result = smoke("tunnel-deep", 0)
    assert last["failed"] >= 1
    assert "ValueError" in result["failures_by_exception"]
    last, result = smoke("classify-sweep", 0)
    assert last["failed"] >= 1
    assert "InternalBandSearchFailure" in result["failures_by_exception"]


def test_failure_counts_do_not_depend_on_the_seed():
    counts = set()
    for seed in (1, 2):
        proc = run("--workload", "classify-sweep", "--seed", str(seed),
                   "--smoke", "--trace", "0")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        counts.add((last["attempted"], last["failed"]))
    assert len(counts) == 1, counts


@pytest.mark.parametrize("workload", ["finite-revisit", "classify-sweep"])
def test_traced_counts_repeat(workload):
    first, _ = smoke(workload, 1)
    second, _ = smoke(workload, 1)
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == names
    for name, unit in names.items():
        if unit != "s":
            assert first["metrics"][name] == second["metrics"][name], name


def test_only_known_defects_leave_the_run_correct(tmp_path):
    import run as bench_run
    bench_run.load_package()
    import workloads as wl

    def boom(_):
        raise ValueError("boom")

    runner = bench_run.Runner(wl.Context("t", 0, True, tmp_path), {}, {})
    known = wl.Op("route", "known", call=boom,
                  known_defect=lambda error: error == "ValueError")
    other = wl.Op("route", "other", call=boom,
                  known_defect=lambda error: error == "OverflowError")
    assert not runner.run_op(known, None)["ok"]
    assert runner.unexpected == []
    assert not runner.run_op(other, None)["ok"]
    assert len(runner.unexpected) == 1 and "ValueError" in runner.unexpected[0]
    affine = ((0, -2, 2000), (2, 0, -2002), (-1000, 1001, 0))
    assert wl.band_search_defect(affine, "InternalBandSearchFailure")
    assert not wl.band_search_defect(ref.WING, "InternalBandSearchFailure")
    assert not wl.band_search_defect(affine, "ValueError")


def test_host_speed_of_a_call():
    import run as bench_run

    speed = bench_run.HostSpeed()
    speed.samples = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]
    assert speed.loop_s(0.5, 2.5) == 4.0  # samples taken during the call
    assert speed.loop_s(1.2, 1.8) == 4.0  # none: the samples either side
    assert bench_run.scaled(2.0, bench_run.REFERENCE_LOOP_S / 2) == 4.0


def test_bare_directory_fails(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    shutil.copy(BENCH / "lock.json", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "tunnel-deep", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_chebyshev_reference():
    # U_n at kappa = 2 (ab = 4) is n + 1.
    cheb = ref.Chebyshev(2, 2)
    assert [cheb.V(n) * (2 if n % 2 else 1) for n in range(6)] == \
        [1, 2, 3, 4, 5, 6]
    # ab = 6: U_2 = ab - 1, U_3 = kappa (ab - 2).
    cheb = ref.Chebyshev(3, 2)
    assert (cheb.V(2), cheb.V(3)) == (5, 4)
    assert cheb.band("T42", 0) == (Fraction(2), None)


def test_planted_frames_sit_in_their_bands():
    for name, m, planted, _ in corpus.build(5, n_random=2):
        if planted is None:
            continue
        c0, d0 = planted["c0_d0"]
        a, b = planted["pair_ab"]
        assert m == corpus.frame(c0, d0, a, b)
        assert ref.band_holds(c0, d0, a, b, planted["tag"], planted["band"],
                              planted["boundary"]), name
        assert ref.totally_infinite(m)


def test_route_references():
    assert ref.reaches_negative_orthant(ref.TUNNEL, ref.TUNNEL_ROUTE)
    assert not ref.reaches_negative_orthant(ref.TUNNEL, ref.TUNNEL_ROUTE[:-1])
    assert ref.cluster_cyclic(ref.MARKOV)
    assert ref.markov_constant(ref.MARKOV) == 4
