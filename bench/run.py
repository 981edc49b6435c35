#!/usr/bin/env python3
"""upsilon-lab benchmark: closed-loop CLI workloads over the genus ladder.

    python3 bench/run.py --workload census-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

Each workload is one client in one thread calling ``upsilon_lab.cli.main``
in-process with stdout/stderr captured in memory, the next call starting
when the previous one returns (closed loop, no think time; the checking done
between calls is not timed).  The seed only generates inputs (workloads.py).
Every output is checked for exactness (checks.py): once in full on a warm-up
pass, then byte-for-byte against that verified output on every timed call.

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json.  --trace 1
runs every op once untraced and once with spans around every layer's public
callables (tracing.py), pass after pass, and prints the per-layer metrics
(per operation) and the tracing overhead; spans go to
.bench_out/spans-<workload>.tsv.gz.  The program has no queue and no second thread, so no
layer reports a waiting time.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9

if not (SRC / "upsilon_lab" / "__init__.py").is_file():
    sys.exit(f"error: no upsilon_lab sources at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from upsilon_lab import cli  # noqa: E402


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _calibration_work() -> None:
    """Fixed stdlib-only work with the program's profile: int and Fraction arithmetic, allocation."""
    total = 0
    for i in range(10000):
        total += i * i % 7
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, i + 1) * Fraction(2 * i - 1, 7)
    table = {i: (i, [i] * 4, str(i)) for i in range(1500)}
    sorted(table.items(), key=lambda kv: -kv[0])


class Clock:
    """Converts wall time to seconds at a fixed reference machine speed.

    On a shared host this CPU-bound code runs up to 30% slower for seconds
    to minutes at a time, which swamps any regression bound; a fixed
    calibration loop slows down by about the same factor.  Every REFRESH_S
    the loop runs 5 times; the speed is the mean over the last 4 refreshes of
    the median run, and a call's wall time is scaled by REFERENCE_S over the
    loop time around the call.  The loop never touches upsilon_lab, so a
    faster program shows as less reference time.
    """

    REFERENCE_S = 0.003  # the loop's typical time on a 2-CPU x86-64 container, Python 3.11
    REFRESH_S = 0.25

    def __init__(self):
        self.speeds: list[float] = []
        self._recent: list[float] = []
        self._calibrate()

    def _calibrate(self) -> None:
        runs = []
        for _ in range(5):
            t0 = perf_counter()
            _calibration_work()
            runs.append(perf_counter() - t0)
        self._recent = self._recent[-3:] + [statistics.median(runs)]
        self.factor = self.REFERENCE_S / statistics.mean(self._recent)
        self.speeds.append(self.factor)
        self._at = perf_counter()

    def scale(self) -> float:
        """Current reference seconds per wall second, recalibrating when stale."""
        if perf_counter() - self._at >= self.REFRESH_S:
            self._calibrate()
        return self.factor

    def timed(self, seconds: float, before: float) -> float:
        """Reference time of a call that took `seconds` and started at scale `before`."""
        return seconds * (before + self.scale()) / 2


def _probe(calls: list[list[str]]) -> tuple[float, int]:
    """Run CLI calls in a fresh interpreter: (seconds from import to the end, peak RSS in KiB)."""
    env = {k: v for k, v in os.environ.items() if k != "UPSILON_LAB_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "probe.py"), str(SRC)],
        input=json.dumps(calls), capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()}")
    seconds, maxrss = proc.stdout.split()[-2:]
    return float(seconds), int(maxrss)


def measure_setup(workload: str, workdir: str, clock: Clock) -> tuple[float, float]:
    """Median over fresh interpreters of import + the workload's fixed warm-up ops.

    Returns (reference seconds, wall seconds).
    """
    warmup = [[arg.replace("{workdir}", workdir) for arg in argv] for argv in workloads.WARMUP[workload]]
    ref, wall = [], []
    for _ in range(SETUP_REPEATS):
        before = clock.scale()
        seconds = _probe(warmup)[0]
        wall.append(seconds)
        ref.append(clock.timed(seconds, before))
    return statistics.median(ref), statistics.median(wall)


class Runner:
    """Runs ops, checks them, and keeps latency and failure counts."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.verified: list[tuple | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @staticmethod
    def call(op: workloads.Op) -> tuple[object, str, float]:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed op, never a failed run
            rc = f"raised {type(exc).__name__}: {exc}"
        return rc, out.getvalue(), perf_counter() - t0

    @staticmethod
    def _result(op: workloads.Op, rc, stdout: str) -> tuple:
        """Exit code and SHA-256 digests of stdout and of the SVG file, if any."""
        svg = Path(op.ref["out"]).read_bytes() if op.kind == "plot" and rc == 0 else b""
        return rc, hashlib.sha256(stdout.encode("utf-8")).digest(), hashlib.sha256(svg).digest()

    def _fail(self, op: workloads.Op, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.label}: {reason}")

    def run(self, i: int) -> tuple[bool, float, str]:
        """One call of op i; (correct, seconds, stdout)."""
        op = self.ops[i]
        if op.kind == "plot":
            Path(op.ref["out"]).unlink(missing_ok=True)
        rc, stdout, dt = self.call(op)
        self.attempted += 1
        if self.verified[i] is None:
            reason = checks.check(op, rc, stdout)
            if reason is None:
                self.verified[i] = self._result(op, rc, stdout)
        elif self._result(op, rc, stdout) != self.verified[i]:
            reason = "output differs from the verified output of the same input"
        else:
            reason = None
        if reason is not None:
            self._fail(op, reason)
        return reason is None, dt, stdout

    def passes(self, seconds: float, clock: Clock) -> tuple[list[list[float]], float, float, int]:
        """Whole passes over the pool until `seconds` have elapsed.

        Returns the sorted reference-speed latencies of each pass's correct
        calls, the reference and wall time spent in all calls (failed ones
        included), and the knots the correct calls processed.
        """
        passes: list[list[float]] = []
        busy = wall = 0.0
        knots = 0
        deadline = perf_counter() + seconds
        while True:
            lat = []
            for i in range(len(self.ops)):
                before = clock.scale()
                ok, dt, _ = self.run(i)
                ref = clock.timed(dt, before)
                busy += ref
                wall += dt
                if ok:
                    lat.append(ref)
                    knots += self.ops[i].knots
            passes.append(sorted(lat))
            if perf_counter() >= deadline:
                return passes, busy, wall, knots


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


def end_to_end(passes: list[list[float]], busy: float, wall: float, knots: int,
               setup: tuple[float, float]) -> tuple[dict, dict]:
    """Latency percentiles are medians over passes of each pass's percentile.

    Every pass holds each input once, so a pass's percentile is one input's
    latency; the median over passes is robust where pooled samples of two
    inputs of different cost meet at the percentile's rank.
    """
    flat = sorted(x for lat in passes for x in lat)
    ops = len(flat)
    p50 = statistics.median(statistics.median(lat) for lat in passes if lat)
    p90 = statistics.median(percentile(lat, 90) for lat in passes if lat)
    metrics = {
        "throughput_ops_s": ops / busy,
        "records_per_s": knots / busy,
        "latency_p50_ms": p50 * 1000,
        "latency_p90_ms": p90 * 1000,
        "setup_s": setup[0],
    }
    notes = {
        "throughput_ops_s": f"{ops} ops in {busy:.2f} ref s ({ops / wall:.4g}/s wall)",
        "records_per_s": f"{knots} knots",
        "latency_p50_ms": f"n={ops} over {len(passes)} passes",
        "latency_p90_ms": f"n={ops}, {sum(1 for x in flat if x > p90)} beyond",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes ({setup[1]:.4g} s wall)",
    }
    return metrics, notes


def traced_passes(runner: Runner, name: str, seconds: float) -> dict:
    """Whole passes until `seconds` elapse, each op run once untraced and once traced.

    Adjacent calls of the same op see the same machine speed, so their time
    ratio is the tracing overhead; which of the two goes first alternates
    from pass to pass, so warm caches favour neither.
    """
    tracer = tracing.Tracer()
    elapsed = {False: 0.0, True: 0.0}
    bytes_out = 0
    kinds: list[str] = []
    deadline = perf_counter() + seconds
    traced_first = False
    while True:
        for i, op in enumerate(runner.ops):
            for traced in (traced_first, not traced_first):
                if not traced:
                    elapsed[False] += runner.run(i)[1]
                    continue
                tracer.op_index = len(kinds)
                kinds.append(op.kind)
                undo = tracing.install(tracer)
                try:
                    _, dt, stdout = runner.run(i)
                finally:
                    tracing.uninstall(undo)
                elapsed[True] += dt
                bytes_out += len(stdout.encode("utf-8"))
        traced_first = not traced_first
        if perf_counter() >= deadline:
            break
    metrics = tracing.layer_metrics(tracer, kinds)
    metrics["cli.bytes_out"] = bytes_out / len(kinds)
    metrics["trace.overhead_ratio"] = elapsed[False] / elapsed[True]
    tracing.write_spans(tracer, OUT / f"spans-{name}.tsv.gz")
    return metrics


def defect_probes(seed: int, workdir: str) -> list[tuple[str, str | None]]:
    """Known census defects: (probe, reason it still fails or None once fixed)."""
    results = []
    for op in workloads.census_defect_probes(seed, workdir):
        op.write_files()
        rc, stdout, _ = Runner.call(op)
        results.append((op.kind.split(":", 1)[1], checks.check(op, rc, stdout)))
    return results


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        ops = workloads.generate(name, seed, workdir)
        for op in ops:
            op.write_files()
        print(f"upsilon-lab benchmark  workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
        print(f"interpreter={platform.python_implementation()} {platform.python_version()}  "
              f"nproc={len(os.sched_getaffinity(0))}  git={git_sha()}")
        print(f"load: closed loop, 1 client, 1 thread, {len(ops)} generated inputs cycled in whole passes")
        runner = Runner(ops)
        for i in range(len(ops)):  # warm-up pass: fills caches and verifies every output in full
            runner.run(i)
        # A CLI process starts with few live objects; keep the benchmark's own
        # objects out of the cyclic collector's scans, as they would be.
        gc.collect()
        gc.freeze()
        if trace:
            metrics = traced_passes(runner, name, seconds)
            wanted, notes = spec["per_layer"], {}
        else:
            clock = Clock()
            setup = measure_setup(name, workdir, clock)
            metrics, notes = end_to_end(*runner.passes(seconds, clock), setup)
            # Peak memory of the program alone: one pass in a fresh interpreter,
            # without the generator and checker that share this process.
            metrics["peak_rss_mb"] = _probe([op.argv for op in ops])[1] / 1024
            notes["peak_rss_mb"] = "one pass in a fresh process"
            wanted = spec["end_to_end"]
            speeds = sorted(clock.speeds)
            print(f"machine speed: reference s per wall s, median {statistics.median(speeds):.3f}, "
                  f"range {speeds[0]:.3f}-{speeds[-1]:.3f} over {len(speeds)} calibrations")
        probes = defect_probes(seed, workdir) if name == "census-ladder" else []
        metrics["census.defect_probe_failures"] = sum(1 for _, reason in probes if reason)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{'metric':34} {'value':>14}  {'unit':10} samples")
    out_metrics = {}
    for m in wanted:
        value = metrics[m["name"]]
        out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:34} {value:14.6g}  {m['unit']:10} {notes.get(m['name'], '')}")
    print(f"{'failed_ops_ratio':34} {runner.failed / runner.attempted:14.6g}  {'ratio':10} "
          f"{runner.failed}/{runner.attempted}")
    for line in runner.failures:
        print(f"FAILED {line}")
    for probe, reason in probes:
        state = f"still fails: {reason}" if reason else "passes (defect fixed)"
        print(f"known defect census.{probe}: {state}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
            "metrics": out_metrics}


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process: all untraced, then all traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for trace in (0, 1):
        for w in spec["workloads"]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["workloads"].setdefault(w["name"], {}).update(result["metrics"])
            print()
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("UPSILON_LAB_THREADS", None)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
