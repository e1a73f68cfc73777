#!/usr/bin/env python3
"""gfans benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --smoke --trace 0|1
    python3 bench/run.py --record-lock

A run sets up (imports the package from src/, generates its inputs from
--seed, writes the matrix files, warms up), then repeats the workload's
pass (see workloads.py) until --seconds have elapsed.  Load is a closed
loop with one client: one process, no extra threads, each call starting
after the previous one returns.  Every output is checked against an
independent reference; fan documents and SVGs must also match the
SHA-256 values in lock.json, recorded from the package as it stood when
the benchmark was defined (re-record with --record-lock only when a
change to those bytes is intended).

--trace 0 prints the end-to-end metrics: for each call, the median over
the measured passes of its time scaled to a reference host speed (see
REFERENCE_LOOP_S), and set-up time as the median of fresh set-up
processes, scaled the same way.  attempted and failed count operations
(one CLI or library call each) by their first call, so they depend on
the workload's inputs only; a later call of an operation must end the
same way and give the same bytes.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics, including the
tracing overhead (traced minus untraced pass time).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  A result file with the machine, the workload sizes
and every failure by exception type goes to bench/results/.

--smoke runs one pass at minimum sizes with every output check; the
benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LOCK = BENCH / "lock.json"
RESULTS = BENCH / "results"
SETUP_PROBES = 7

# Host speed.  On a shared host the same call runs up to twice as fast or
# as slow for stretches of seconds to minutes, as other tenants come and
# go, and a whole run can fall in one such stretch.  A fixed pure-Python
# loop (tuple keys in a dict, small and 600-bit integer arithmetic: the
# kinds of work gfans does) is timed every CALIBRATE_EVERY_S while a pass
# runs, and each end-to-end time is scaled by REFERENCE_LOOP_S / (the
# loop time sampled during the call), so times read as if the host ran at
# the speed where the loop takes REFERENCE_LOOP_S.  That is about its
# median on the 2-vCPU host the benchmark was defined on, so there scaled
# and raw times are close.  The loop is the benchmark's own code, so a
# change to gfans moves the scaled times as it moves the raw ones.  Raw
# times are kept in the result file.
REFERENCE_LOOP_S = 0.0005
CALIBRATE_EVERY_S = 0.05
_BIG = 3 ** 380


def _reference_loop() -> int:
    table, acc = {}, 0
    for i in range(800):
        key = (i & 127, i % 5, -i)
        table[key] = table.get(key, 0) + 1
        acc += (_BIG * (i + 1)) % 1000003
    return acc + len(table)


def reference_loop_s() -> float:
    """Seconds the reference loop takes now: median of three runs."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scaled(seconds: float, loop_s: float) -> float:
    return seconds * REFERENCE_LOOP_S / loop_s


class HostSpeed:
    """Samples the reference loop every CALIBRATE_EVERY_S on a timer
    signal, in the middle of calls too, and keeps how long the samples
    took so that a call's time can leave them out."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, loop seconds)
        self.spent = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        loop = reference_loop_s()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, loop))
        self.spent += t1 - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S,
                         CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def loop_s(self, start: float, end: float) -> float:
        """Median loop time sampled during [start, end]; for a call too
        short to hold a sample, the mean of the samples either side."""
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if hi > lo:
            return statistics.median(loop for _, loop in self.samples[lo:hi])
        return (self.samples[lo - 1][1] + self.samples[lo][1]) / 2


# name -> (unit, stage whose calls it rates: work done by the calls
# that completed with correct output, per second of all the stage's calls)
END_TO_END_RATES = {
    "cli_explore_cones_per_s": ("cones/s", "explore"),
    "cli_render_cones_per_s": ("cones/s", "render"),
    "cli_verify_seeds_per_s": ("seeds/s", "verify"),
    "cli_classify_per_s": ("matrices/s", "classify"),
    "containment_checks_per_s": ("checks/s", "contain"),
    "disjoint_pairs_per_s": ("pairs/s", "disjoint"),
}

# Layer metrics read from the first traced pass (counts, which repeat
# exactly) or as the fastest over traced passes (self times).
CALLS = (
    "exchange.mutate_matrix", "exchange.skew_symmetrizer",
    "seeds.mutate_seed", "seeds.cone_key", "seeds.verify_seed",
    "seeds.unimodular_inverse", "explorer.cone_contains",
    "explorer.interiors_disjoint", "render.arc_polyline",
    "rank3.vertex_type", "rank3.find_band_index", "chebyshev.nu_ratio",
    "chebyshev.chebyshev_u", "rank2.limit_vectors", "quadratic.sign",
)
SELF_TIMES = (
    "exchange.mutate_matrix", "exchange.skew_symmetrizer",
    "seeds.mutate_seed", "seeds.cone_key", "seeds.verify_seed",
    "seeds.unimodular_inverse", "explorer.explore", "explorer.save_fan",
    "explorer.load_fan", "explorer.cone_contains",
    "explorer.interiors_disjoint", "render.render_svg",
    "render.arc_polyline", "rank3.fan_type", "rank3.find_band_index",
    "rank3.limit_rays", "chebyshev.nu_ratio", "rank2.limit_vectors",
    "quadratic.sign", "cli.classify", "cli.explore", "cli.render",
    "cli.verify",
)


def load_package():
    """Import gfans from this checkout's src/ and nowhere else."""
    if not (SRC / "gfans" / "__init__.py").is_file():
        sys.exit(f"error: no gfans package at {SRC / 'gfans'}")
    sys.path.insert(0, str(SRC))
    import gfans
    if Path(gfans.__file__).resolve().parent != (SRC / "gfans").resolve():
        sys.exit(f"error: gfans imported from {gfans.__file__}, not {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit (one set-up time sample)")
    p.add_argument("--record-lock", action="store_true")
    args = p.parse_args(argv)
    if not args.record_lock and args.workload is None:
        p.error("--workload is required")
    return args


# -- set-up ------------------------------------------------------------------

def setup(workload: str, seed: int, smoke: bool, workdir: Path):
    import workloads as wl

    if workload not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = wl.Context(workload, seed, smoke, workdir)
    stages = {name: wl.Stage(*spec)
              for name, spec in wl.WORKLOADS[workload](ctx).items()}
    wl.write_inputs(ctx)
    watch_handlers()
    warm_up(workdir)
    return ctx, stages


# Exception types raised inside gfans.cli's command handlers during the
# CLI call in progress, including those main() turns into an exit code.
HANDLED: list[str] = []


def watch_handlers():
    """Wrap gfans.cli's command handlers, which build_parser looks up on
    every main() call, so a failing call's exception type is known even
    when the CLI reports it only as an exit code."""
    import gfans.cli

    def watch(fn):
        @functools.wraps(fn)
        def watched(args):
            try:
                return fn(args)
            except Exception as exc:
                HANDLED.append(type(exc).__name__)
                raise
        return watched

    # --record-lock sets up several workloads in one process: wrap once.
    for name, fn in list(vars(gfans.cli).items()):
        if name.startswith("_cmd_") and not hasattr(fn, "__wrapped__"):
            setattr(gfans.cli, name, watch(fn))


def warm_up(workdir: Path):
    """One tiny call of each command, so lazy imports and first-call
    costs land in set-up rather than in the first measured call."""
    import gfans.cli
    import reference as ref

    m = workdir / "warm-up.json"
    m.write_text(json.dumps({"n": 3, "b": [list(r) for r in ref.MARKOV]}))
    fan, svg = workdir / "warm-up.fan.json", workdir / "warm-up.svg"
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for argv in (["classify", str(m), "--format", "json",
                      "--out", str(workdir / "warm-up.classify.json")],
                     ["explore", str(m), "--depth", "2", "--out", str(fan)],
                     ["render", str(fan), "--out", str(svg)],
                     ["verify", str(m), "--depth", "1"]):
            if gfans.cli.main(argv) != 0:
                sys.exit(f"error: warm-up call {argv[0]} failed")


def setup_seconds(args) -> list[float]:
    """Wall time from process start to ready, measured on fresh
    processes that set up and exit, each scaled to the reference host
    speed by the loop times measured just before and after it."""
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"] + (["--smoke"] if args.smoke else [])
        before = reference_loop_s()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        seconds = time.perf_counter() - t0
        samples.append(scaled(seconds, (before + reference_loop_s()) / 2))
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return samples


# -- running operations ------------------------------------------------------

class Runner:
    """Runs passes of a workload, checks outputs, and keeps the record."""

    def __init__(self, ctx, stages, lock: dict | None):
        self.ctx = ctx
        self.stages = stages
        self.lock = lock  # label -> sha256, or None when recording
        self.recorded: dict[str, str] = {}
        self.prepared = {}
        self.first = {}  # label -> (digest, ok, work) of the checked call
        self.failures = Counter()  # (label, exit, error, message) -> calls
        self.wrong: list[str] = []
        self.unexpected: list[str] = []  # failures no known defect explains
        self.unlocked: set[str] = set()
        self.ok: dict[str, bool] = {}  # label -> outcome of its first call
        self.speed: HostSpeed | None = None  # sampling during this pass
        self.op_index = 0

    def run_pass(self, index=None, tracer=None) -> list[dict]:
        """Every stage once; given the pass index, a stage with every=k
        runs only on passes k-1, 2k-1, ...  An untraced pass samples the
        host speed as it runs, and each of its calls gets the speed
        sampled during it (or just before and after it)."""
        import workloads as wl

        records = []
        with HostSpeed() if tracer is None else nullcontext() as speed:
            self.speed = speed
            for name in wl.STAGES:
                stage = self.stages[name]
                if index is not None and \
                        index % stage.every != stage.every - 1:
                    continue
                gc.collect()
                for _ in range(stage.reps):
                    for op in stage.ops:
                        records.append(self.run_op(op, tracer))
        self.speed = None
        if speed is not None:
            for r in records:
                r["loop_s"] = speed.loop_s(r.pop("start"), r.pop("end"))
        return records

    def run_op(self, op, tracer) -> dict:
        import gfans.cli
        import workloads as wl

        self.op_index += 1
        if tracer is not None:
            tracer.op = self.op_index
        now = time.perf_counter()
        rec = {"stage": op.stage, "label": op.label, "seconds": 0.0,
               "ok": False, "work": 0, "bytes": 0, "start": now, "end": now}
        if op.call is not None:
            if op.label not in self.prepared:
                try:
                    self.prepared[op.label] = op.prepare() \
                        if op.prepare else None
                except wl.Wrong as exc:  # a control check failed
                    self.wrong.append(f"{op.label}: {exc}")
                    self.prepared[op.label] = exc
                except Exception as exc:  # its input came from a failed call
                    self.prepared[op.label] = exc
            arg = self.prepared[op.label]
            if isinstance(arg, Exception):
                self.ok.setdefault(op.label, False)
                if not isinstance(arg, wl.Wrong):
                    self.fail(op, wl.Outcome(None, type(arg).__name__,
                                             str(arg), "", "", None))
                return rec
            error, result = None, None
            start = self.clock()
            try:
                result = op.call(arg)
            except Exception as exc:
                error = exc
            self.stop_clock(rec, start)
            outcome = wl.Outcome(None, type(error).__name__ if error else None,
                                 str(error or ""), "", "", None, result)
        else:
            if op.output is not None and op.output.exists():
                op.output.unlink()
            out, err = io.StringIO(), io.StringIO()
            error, code = None, None
            HANDLED.clear()
            with redirect_stdout(out), redirect_stderr(err):
                start = self.clock()
                try:
                    code = gfans.cli.main(list(op.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:
                    error = exc
                self.stop_clock(rec, start)
            data = None
            if code == 0 and op.output is not None and op.output.exists():
                data = op.output.read_bytes()
                rec["bytes"] = len(data)
            outcome = wl.Outcome(code, type(error).__name__ if error else None,
                                 str(error or ""), out.getvalue(),
                                 err.getvalue(), data,
                                 handled=HANDLED[0] if HANDLED else None)
        rec["ok"], rec["work"] = self.evaluate(op, outcome)
        return rec

    def clock(self):
        spent = self.speed.spent if self.speed else 0.0
        return time.perf_counter(), spent

    def stop_clock(self, rec, start):
        """The call's wall time less the time host-speed samples took in
        the middle of it."""
        end = time.perf_counter()
        spent = self.speed.spent if self.speed else 0.0
        rec["seconds"] = end - start[0] - (spent - start[1])
        rec["start"], rec["end"] = start[0], end

    def evaluate(self, op, o):
        ok, work = self.outcome(op, o)
        # An operation counts once, by its first call, so attempted and
        # failed depend on the inputs only, not on how many passes fit in
        # the run; a later call must end the same way.
        if op.label not in self.ok:
            self.ok[op.label] = ok
        elif ok != self.ok[op.label]:
            self.wrong.append(f"{op.label}: ok={ok} after ok="
                              f"{self.ok[op.label]} in an earlier call")
        return ok, work

    def outcome(self, op, o):
        if o.error is not None or (op.call is None
                                   and o.exit_code != op.expect_exit):
            self.fail(op, o)
            return False, 0
        if op.call is not None:
            return self.check(op, o)
        payload = o.data if o.data is not None else \
            (o.stdout + o.stderr).encode()
        digest = hashlib.sha256(payload).hexdigest()
        if op.label not in self.first:
            ok, work = self.check(op, o)
            if ok and op.locked:
                ok = self.check_lock(op.label, digest)
            self.first[op.label] = (digest, ok, work)
            return ok, work
        first_digest, ok, work = self.first[op.label]
        if digest != first_digest:
            self.wrong.append(f"{op.label}: output changed between calls")
            return False, 0
        return ok, work

    def fail(self, op, o):
        """Count a failed call under its exception type.  A failure that
        is not one of the op's known defects makes the run incorrect."""
        error = o.error or o.handled
        message = o.message or (o.stderr.strip().splitlines() or [""])[-1]
        key = (op.label, o.exit_code, error, message[:200])
        if key not in self.failures and not (
                op.known_defect and op.known_defect(error)):
            how = "uncaught" if o.exit_code is None else f"exit {o.exit_code}"
            self.unexpected.append(f"{op.label}: {error} ({how}) {message}")
        self.failures[key] += 1

    def check(self, op, o):
        import workloads as wl

        try:
            return True, op.check(o, self.ctx)
        except wl.Wrong as exc:
            self.wrong.append(f"{op.label}: {exc}")
        except Exception as exc:  # malformed output
            self.wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return False, 0

    def check_lock(self, label, digest) -> bool:
        if self.lock is None:
            self.recorded[label] = digest
            return True
        if label not in self.lock:
            self.unlocked.add(label)
            return True
        if self.lock[label] != digest:
            self.wrong.append(f"{label}: bytes differ from lock.json")
            return False
        return True

    def failure_report(self) -> list[dict]:
        """Every distinct failure with its exception type."""
        return [{"op": label, "exit_code": code, "exception": error,
                 "message": message, "calls": n}
                for (label, code, error, message), n in sorted(
                    self.failures.items(), key=str)]


# -- metrics -----------------------------------------------------------------

def stage_seconds(records) -> Counter:
    seconds = Counter()
    for r in records:
        seconds[r["stage"]] += r["seconds"]
    return seconds


def call_costs(passes):
    """label -> (stage, seconds, work) of one call: the median over the
    measured passes of its time scaled to the reference host speed."""
    calls = defaultdict(list)
    for records in passes:
        for r in records:
            calls[r["label"]].append(r)
    return {label: (rs[0]["stage"],
                    statistics.median(scaled(r["seconds"], r["loop_s"])
                                      for r in rs),
                    statistics.median(r["work"] for r in rs))
            for label, rs in calls.items()}


def end_to_end(passes, setup_samples, attempted, ok):
    seconds, work = Counter(), Counter()
    for stage, s, w in call_costs(passes).values():
        seconds[stage] += s
        work[stage] += w
    metrics = {"setup_s": (statistics.median(setup_samples), "s")}
    for name, (unit, stage) in END_TO_END_RATES.items():
        rate = work[stage] / seconds[stage] if seconds[stage] else 0.0
        metrics[name] = (rate, unit)
    metrics["route_search_s"] = (seconds["route"], "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["ops_ok_ratio"] = (ok / attempted, "ratio")
    return metrics


def per_layer(tracers, traced, untraced, ctx):
    first = tracers[0]
    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = (first.calls[name], "count")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (
            min(t.self_s[name] for t in tracers), "s")
    m["explorer.json_s"] = (min(
        t.self_s["explorer.save_fan_file"] + t.self_s["explorer.load_fan_file"]
        for t in tracers), "s")
    mutations = first.edges["explorer.explore", "seeds.mutate_seed"]
    new = first.counters["explorer.new_cones"]
    m["explorer.mutations"] = (mutations, "count")
    m["explorer.new_cones"] = (new, "count")
    m["explorer.useful_ratio"] = (new / mutations if mutations else 0.0,
                                  "ratio")
    records = traced[0]
    m["explorer.fan_doc_bytes"] = (sum(
        r["bytes"] for r in records if r["stage"] == "explore"), "bytes")
    m["render.svg_bytes"] = (sum(
        r["bytes"] for r in records if r["stage"] == "render"), "bytes")
    m["render.failures"] = (sum(
        not r["ok"] for r in records if r["stage"] == "render"), "count")
    m["rank3.max_band_index"] = (first.maxima["rank3.max_band_index"],
                                 "index")
    m["quadratic.constructions"] = (first.counters["quadratic.constructions"],
                                    "count")
    m["seeds.max_entry_bits"] = (max_entry_bits(ctx), "bits")
    # Each traced pass runs right after an untraced one, so the two see
    # the host at about the same speed; the warm-up pair is skipped.
    pairs = list(zip(untraced, traced))
    pairs = pairs[1:] or pairs
    t_pass = statistics.median(pass_seconds(t) for _, t in pairs)
    u_pass = statistics.median(pass_seconds(u) for u, _ in pairs)
    m["trace.traced_pass_s"] = (t_pass, "s")
    m["trace.untraced_pass_s"] = (u_pass, "s")
    m["trace.overhead_s"] = (statistics.median(
        pass_seconds(t) - pass_seconds(u) for u, t in pairs), "s")
    return m


def pass_seconds(records):
    return sum(r["seconds"] for r in records)


def max_entry_bits(ctx) -> int:
    return max((s["max_entry_bits"] for s in ctx.sizes.values()
                if "max_entry_bits" in s), default=0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


# -- modes -------------------------------------------------------------------

def measure(args, workdir: Path) -> dict:
    from tracing import Tracer

    setup_samples = [] if args.trace else setup_seconds(args)
    ctx, stages = setup(args.workload, args.seed, args.smoke, workdir)
    lock = json.loads(LOCK.read_text()).get(args.workload, {}) \
        if LOCK.exists() else {}
    runner = Runner(ctx, stages, lock)
    passes, traced, tracers = [], [], []
    # Every stage runs at least once after the first, unmeasured pass.
    min_passes = 1 if args.trace else \
        max(2, *(st.every for st in stages.values()))
    start = time.perf_counter()
    while True:
        # Traced and smoke passes run every stage, so each pass has the
        # same counts.
        passes.append(runner.run_pass(
            None if args.trace or args.smoke else len(passes)))
        if args.trace:
            tracer = Tracer(keep_spans=not tracers)
            with tracer:
                traced.append(runner.run_pass(tracer=tracer))
            tracers.append(tracer)
        if args.smoke or (time.perf_counter() - start >= args.seconds
                          and len(passes) >= min_passes):
            break
    attempted = len(runner.ok)
    ok = sum(runner.ok.values())
    # The first pass fills caches and runs the first-call checks; it is
    # measured only when it is the only one.
    measured = passes[1:] or passes
    if args.trace:
        metrics = per_layer(tracers, traced, passes, ctx)
    else:
        metrics = end_to_end(measured, setup_samples, attempted, ok)
    failures = runner.failure_report()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke, "machine": machine(),
        "passes": len(passes), "traced_passes": len(traced),
        "setup_s_samples": setup_samples,
        "sizes": {**ctx.sizes, "seeds.max_entry_bits": max_entry_bits(ctx)},
        "inputs": {k: {"matrix": m, "why": why}
                   for k, (m, why) in ctx.inputs.items()},
        # label -> [[raw seconds, reference loop seconds], ...]
        "call_seconds": {label: [[r["seconds"], r["loop_s"]]
                                 for p in measured for r in p
                                 if r["label"] == label]
                         for label in dict.fromkeys(
                             r["label"] for p in measured for r in p)},
        "stage_seconds_per_pass": [stage_seconds(p) for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted, "failed": attempted - ok,
        "failures": failures,
        # exception type -> failing operations
        "failures_by_exception": dict(Counter(
            f["exception"] or f"exit {f['exit_code']}" for f in failures)),
        "wrong_outputs": runner.wrong,
        "unexpected_failures": runner.unexpected,
        "unlocked_outputs": sorted(runner.unlocked),
        "correct": not runner.wrong and not runner.unexpected,
    }
    if tracers:
        spans = RESULTS / f"{stem}.spans.tsv.gz"
        tracers[0].write_spans(spans)
        result["spans_file"] = spans.name
        result["exceptions_in_layers"] = {
            f"{n} {e}": c for (n, e), c in tracers[0].raised.items()}
    result["result_file"] = str(RESULTS / f"{stem}.json")
    Path(result["result_file"]).write_text(json.dumps(result, indent=1))
    return result


def record_lock():
    lock = {}
    import workloads as wl

    for name in wl.WORKLOADS:
        lock[name] = {}
        for smoke in (True, False):
            workdir = BENCH / ".work" / f"lock-{name}-{os.getpid()}"
            try:
                ctx, stages = setup(name, 0, smoke, workdir)
                runner = Runner(ctx, stages, None)
                runner.run_pass()
                if runner.wrong:
                    sys.exit(f"error: {name}: {runner.wrong}")
                lock[name].update(runner.recorded)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    LOCK.write_text(json.dumps(lock, indent=1, sort_keys=True) + "\n")
    print(f"wrote {LOCK}")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    if args.record_lock:
        record_lock()
        return 0
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            setup(args.workload, args.seed, args.smoke, workdir)
            return 0
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']!r} {m['unit']}")
    for f in result["failures"]:
        how = "uncaught" if f["exit_code"] is None else f"exit {f['exit_code']}"
        print(f"failed {f['calls']}x {f['op']}: {f['exception']} ({how}) "
              f"{f['message']}")
    for w in result["wrong_outputs"]:
        print(f"wrong output: {w}")
    for u in result["unexpected_failures"]:
        print(f"unexpected failure: {u}")
    print(f"result file: {result['result_file']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
