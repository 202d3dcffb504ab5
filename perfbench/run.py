#!/usr/bin/env python3
"""The repository benchmark: LoC-MPS offline, online daemon, cache service.

Usage, from the repository root::

    python3 perfbench/run.py --workload locmps-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each measured pass runs in a fresh single-threaded child process with a
pinned ``PYTHONHASHSEED``; the parent starts passes back to back until
the next one would end after ``--seconds``, then reports medians. With
``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
runs one untraced and one traced pass and prints the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("locmps-wide", "locmps-apps", "online-stream", "cache-requests")
HASH_SEED = "0"
#: set-up is timed at least this many times per run (median reported)
MIN_SETUPS = 3
#: a percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10
#: no run may take longer than this, whatever ``--seconds`` says
RUN_CAP_S = 170.0



def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


class ChildFailed(RuntimeError):
    """A benchmark child process exited with an error."""


# -- child: one set-up and (optionally) one measured pass --------------------


def child_main(workload: str, seed: int, traced: bool, setup_only: bool) -> None:
    t0 = time.perf_counter()
    from perfbench import trace, workloads

    import_s = time.perf_counter() - t0
    setup, run_pass = workloads.WORKLOADS[workload]
    scratch = ROOT / ".perfbench" / f"child-{os.getpid()}"
    try:
        t1 = time.perf_counter()
        state = setup(seed, scratch)
        setup_s = time.perf_counter() - t1
        out: Dict[str, Any] = {"import_s": import_s, "setup_s": setup_s}
        if not setup_only:
            if traced:
                rec = trace.SpanRecorder()
                with trace.traced(rec):
                    result = run_pass(state)
                workloads.finish(result)
                out["layers"] = trace.layer_metrics(rec, result.facts)
                out["spans"] = len(rec)
            else:
                result = workloads.finish(run_pass(state))
            out["pass"] = vars(result)
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(out))


# -- parent ------------------------------------------------------------------


def spawn(workload: str, seed: int, *, traced: bool = False, setup_only: bool = False,
          timeout: float = RUN_CAP_S) -> Dict[str, Any]:
    """Run one child to completion and return its JSON record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} child timed out after {exc.timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"{workload} child exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile of *values*."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_label(n: int) -> str:
    """The highest percentile that *n* samples leave TAIL_SAMPLES beyond."""
    if n <= TAIL_SAMPLES:
        return f"no percentile has {TAIL_SAMPLES} beyond"
    return f"p{100.0 * (1 - TAIL_SAMPLES / n):.2f} has {TAIL_SAMPLES} beyond"


class Gate:
    """Counts operations attempted and failed, and keeps the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def add_pass(self, record: Dict[str, Any], reference: str | None) -> None:
        p = record["pass"]
        self.attempted += p["attempted"]
        self.failed += p["failed"]
        self.errors.extend(p["errors"])
        if reference is not None and p["digest"] != reference:
            self.failed += p["attempted"]
            self.errors.append("placement digest differs from the first pass")

    def crash(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)


def measure(workload: str, seed: int, seconds: float, gate: Gate) -> Dict[str, float]:
    """Untraced passes for about *seconds*; the end-to-end metrics."""
    passes: List[Dict[str, Any]] = []
    setups: List[float] = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        try:
            record = spawn(workload, seed, timeout=RUN_CAP_S - (t0 - start))
        except ChildFailed as exc:
            gate.crash(str(exc))
            return {}
        last = time.perf_counter() - t0
        gate.add_pass(record, passes[0]["pass"]["digest"] if passes else None)
        passes.append(record)
        setups.append(record["import_s"] + record["setup_s"])
    while len(setups) < MIN_SETUPS:
        try:
            record = spawn(workload, seed, setup_only=True,
                           timeout=RUN_CAP_S - (time.perf_counter() - start))
        except ChildFailed as exc:
            gate.crash(str(exc))
            return {}
        setups.append(record["import_s"] + record["setup_s"])

    per_pass = [pass_metrics(r) for r in passes]
    metrics = {"setup_s": statistics.median(setups)}
    for name in per_pass[0]:
        metrics[name] = statistics.median(m[name] for m in per_pass)
    counts = [len(passes[0]["pass"]["samples"].get(key, [])) for key in ("submit_ms", "request_ms")]
    print(f"{workload} seed {seed}: {len(passes)} passes, {len(setups)} set-ups; per pass "
          f"{counts[0]} submit samples ({tail_label(counts[0])}), "
          f"{counts[1]} request samples ({tail_label(counts[1])})")
    return metrics


def pass_metrics(record: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics (but ``setup_s``) as one pass measured them."""
    p = record["pass"]
    facts, wall = p["facts"], p["wall_s"]
    submits, requests = p["samples"].get("submit_ms", []), p["samples"].get("request_ms", [])
    return {
        "schedule_s": facts.get("schedule_s", 0.0),
        "makespan_ratio": facts.get("makespan_ratio", 0.0),
        "submit_p50_ms": percentile(submits, 50) if submits else 0.0,
        "submit_p99_ms": percentile(submits, 99) if submits else 0.0,
        "events_per_s": facts.get("events", 0.0) / wall if wall > 0 else 0.0,
        "online_utilization": facts.get("utilization", 0.0),
        "request_p50_ms": percentile(requests, 50) if requests else 0.0,
        "request_p99_ms": percentile(requests, 99) if requests else 0.0,
        "requests_per_s": facts.get("requests", 0.0) / wall if wall > 0 else 0.0,
        "peak_rss_mb": record["rss_mb"],
    }


def trace_run(workload: str, seed: int, gate: Gate) -> Dict[str, float]:
    """One untraced and one traced pass; the per-layer metrics."""
    start = time.perf_counter()
    try:
        plain = spawn(workload, seed)
        traced = spawn(workload, seed, traced=True,
                       timeout=RUN_CAP_S - (time.perf_counter() - start))
    except ChildFailed as exc:
        gate.crash(str(exc))
        return {}
    gate.add_pass(plain, None)
    gate.add_pass(traced, plain["pass"]["digest"])
    base = plain["pass"]["wall_s"]
    metrics = dict(traced["layers"])
    metrics.update({
        "trace.untraced_s": base,
        "trace.traced_s": traced["pass"]["wall_s"],
        "trace.overhead_ratio": (traced["pass"]["wall_s"] - base) / base if base > 0 else 0.0,
        "trace.spans": float(traced["spans"]),
    })
    print(f"{workload} seed {seed}: traced pass {traced['pass']['wall_s']:.3f} s vs "
          f"untraced {base:.3f} s, {traced['spans']} spans")
    return metrics


def environment() -> str:
    import numpy

    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return (f"nproc={os.cpu_count()} affinity={affinity} python={platform.python_version()} "
            f"numpy={numpy.__version__} PYTHONHASHSEED={HASH_SEED} (pinned in every child)")


def report(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    gate = Gate()
    units = declared_units("per_layer" if trace else "end_to_end")
    values = trace_run(workload, seed, gate) if trace else measure(workload, seed, seconds, gate)
    if values and set(values) != set(units):
        gate.crash(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(f"  env: {environment()}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    ratio = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"  {'failed_ratio':<32} {ratio:>14.6g} ({gate.failed}/{gate.attempted})")
    for error in gate.errors[:10]:
        print(f"  FAILED: {error}")
    correct = gate.failed == 0 and gate.attempted > 0 and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return correct


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.child:
        child_main(args.workload, args.seed, bool(args.trace), args.setup_only)
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = [report(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
