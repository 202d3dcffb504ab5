"""Set-up and one measured pass of each workload, with its correctness gate.

A pass is what one benchmark child process measures: the offline
workloads schedule their graph set once, ``online-stream`` replays its
whole job stream through a fresh daemon, and ``cache-requests`` sends its
whole request sequence through a fresh service. Every operation is timed
from outside, around the public entry point. Schedules are validated by
:func:`finish` after the pass, so the checks run neither inside the timed
operations nor inside a traced pass; a failed check counts the operation
as failed instead of aborting.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

from repro import CachedScheduleService, LocMpsScheduler, ScheduleCache
from repro.analysis.bounds import combined_lower_bound
from repro.cluster import Cluster
from repro.graph import TaskGraph
from repro.online import AdmissionPolicy, Job, OnlineSchedulerDaemon
from repro.schedule import PlacedTask, Schedule
from repro.schedule.validation import validate_schedule

from perfbench import inputs


@dataclass
class Pass:
    """What one pass measured and whether its outputs were correct."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: wall seconds of the measured operations only
    wall_s: float = 0.0
    #: placement digest of every output of the pass, in order
    digest: str = ""
    #: latency samples in milliseconds: ``submit_ms`` and ``request_ms``
    #: (offline: one per ``schedule`` call; online: ``JOB_SUBMIT`` events
    #: and all events; cache: one per request, for both)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: workload facts the end-to-end and per-layer metrics derive from
    facts: Dict[str, float] = field(default_factory=dict)
    #: (label, graph, machine, schedule) left for :func:`finish` to check
    checks: List[Tuple[str, TaskGraph, Cluster, Schedule]] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


def placement_digest(placements: Iterable[PlacedTask]) -> str:
    """SHA-256 over every placement's name, exact times and processors."""
    h = hashlib.sha256()
    for p in sorted(placements, key=lambda p: p.name):
        h.update(
            f"{p.name}|{float(p.start).hex()}|{float(p.exec_start).hex()}|"
            f"{float(p.finish).hex()}|{','.join(map(str, p.processors))}\n".encode()
        )
    return h.hexdigest()


def _combine(digests: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def utilization(schedule: Schedule) -> float:
    """Busy processor-seconds over ``P x makespan``."""
    busy = sum(p.width * (p.finish - p.start) for p in schedule)
    return busy / (schedule.cluster.num_processors * schedule.makespan)


def makespan_ratio(graph: TaskGraph, cluster: Cluster, schedule: Schedule) -> float:
    return schedule.makespan / combined_lower_bound(graph, cluster.num_processors)


def finish(out: Pass) -> Pass:
    """Validate the pass's schedules; set its makespan ratio and utilization."""
    ratios: List[float] = []
    utils: List[float] = []
    for label, graph, cluster, schedule in out.checks:
        try:
            validate_schedule(schedule, graph)
        except Exception as exc:
            out.fail(f"{label}: {exc!r}")
            continue
        ratios.append(makespan_ratio(graph, cluster, schedule))
        utils.append(utilization(schedule))
    out.checks = []
    if ratios:
        out.facts["makespan_ratio"] = geomean(ratios)
        out.facts["utilization"] = sum(utils) / len(utils)
    return out


# -- offline LoC-MPS ---------------------------------------------------------


@dataclass
class OfflineState:
    graphs: List[TaskGraph]
    cluster: Cluster


def setup_offline(workload: str, seed: int) -> OfflineState:
    graphs = inputs.wide_graphs(seed) if workload == "locmps-wide" else inputs.app_graphs(seed)
    return OfflineState(graphs=graphs, cluster=inputs.machine(workload))


def run_offline(state: OfflineState) -> Pass:
    out = Pass()
    digests: List[str] = []
    locbs_runs = 0
    latencies: List[float] = []
    out.samples.update(submit_ms=latencies, request_ms=latencies)
    for graph in state.graphs:
        out.attempted += 1
        scheduler = LocMpsScheduler()
        t0 = time.perf_counter()
        try:
            schedule = scheduler.schedule(graph, state.cluster)
        except Exception as exc:  # a failed schedule is counted, the pass goes on
            out.fail(f"{graph.name}: {exc!r}")
            continue
        wall = time.perf_counter() - t0
        out.wall_s += wall
        latencies.append(wall * 1e3)
        digests.append(placement_digest(schedule))
        out.checks.append((graph.name, graph, state.cluster, schedule))
        locbs_runs += scheduler.memo_stats["misses"]
    out.digest = _combine(digests)
    out.facts.update(
        schedule_s=out.wall_s,
        events=float(locbs_runs),
        requests=float(out.attempted),
    )
    return out


# -- online daemon -----------------------------------------------------------


@dataclass
class OnlineState:
    cluster: Cluster
    widths: Dict[str, Dict[str, int]]
    jobs: List[Job]
    #: LoC-MPS wall seconds and quality of the per-template allocation
    schedule_s: float
    makespan_ratio: float


def setup_online(seed: int) -> OnlineState:
    """Templates, their LoC-MPS allocation (the look-ahead runs only here), jobs."""
    cluster = inputs.machine("online-stream")
    templates = inputs.online_templates()
    widths: Dict[str, Dict[str, int]] = {}
    ratios: List[float] = []
    schedule_s = 0.0
    for template in templates:
        schedule = LocMpsScheduler().schedule(template, cluster)
        schedule_s += schedule.scheduling_time
        validate_schedule(schedule, template)
        ratios.append(makespan_ratio(template, cluster, schedule))
        widths[template.name] = schedule.allocation()
    jobs = inputs.job_stream(templates, seed)
    return OnlineState(cluster, widths, jobs, schedule_s, geomean(ratios))


def run_online(state: OnlineState) -> Pass:
    out = Pass(attempted=len(state.jobs))
    params = inputs.PARAMS["online-stream"]
    daemon = OnlineSchedulerDaemon(
        state.cluster,
        admission=AdmissionPolicy(max_backlog=float(params["max_backlog_s"])),
        allocator=lambda graph, _cluster: state.widths[graph.name],
        differential=False,
        verify=True,
    )
    t0 = time.perf_counter()
    try:
        report = daemon.run(state.jobs)
    except Exception as exc:  # the audit or a placement failed: no job counts
        out.wall_s = time.perf_counter() - t0
        out.fail(f"daemon run: {exc!r}", count=len(state.jobs))
        return out
    out.wall_s = time.perf_counter() - t0
    unfinished = [j.job_id for j in state.jobs if j.finish is None]
    if unfinished:
        out.fail(f"{len(unfinished)} jobs never finished, first {unfinished[0]}", len(unfinished))
    out.digest = _combine(
        placement_digest(j.placements) for j in sorted(state.jobs, key=lambda j: j.job_id)
    )
    out.samples["submit_ms"] = [v * 1e3 for v in report.event_latencies.get("JOB_SUBMIT", [])]
    out.samples["request_ms"] = [v * 1e3 for vals in report.event_latencies.values() for v in vals]
    out.facts.update(
        schedule_s=state.schedule_s,
        makespan_ratio=state.makespan_ratio,
        utilization=report.utilization,
        events=float(len(out.samples["request_ms"])),
        requests=float(report.submitted),
        deferred=float(report.deferred),
        rejected=float(report.rejected),
        # one busy interval per processor of every placed task: the chart
        # is never compacted, so this is its size at the end of the stream
        chart_intervals=float(sum(p.width for j in state.jobs for p in j.placements)),
    )
    return out


# -- cached schedule service -------------------------------------------------


@dataclass
class CacheState:
    cluster: Cluster
    requests: List[TaskGraph]
    service: CachedScheduleService
    cache_dir: Path


def setup_cache(seed: int, cache_dir: Path) -> CacheState:
    """The request sequence and a fresh service over an empty disk tier."""
    params = inputs.PARAMS["cache-requests"]
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
    cache_dir.mkdir(parents=True)
    cache = ScheduleCache(capacity=int(params["memory_capacity"]), cache_dir=cache_dir)
    return CacheState(
        cluster=inputs.machine("cache-requests"),
        requests=inputs.cache_requests(seed),
        service=CachedScheduleService(cache),
        cache_dir=cache_dir,
    )


def run_cache(state: CacheState) -> Pass:
    """Serve every request; a hit must return exactly what its miss stored."""
    out = Pass()
    stored: Dict[str, str] = {}
    digests: List[str] = []
    hits = 0
    miss_schedule_s = 0.0
    latencies: List[float] = []
    out.samples.update(submit_ms=latencies, request_ms=latencies)
    try:
        for graph in state.requests:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                served = state.service.schedule(graph, state.cluster)
            except Exception as exc:
                out.fail(f"{graph.name}: {exc!r}")
                continue
            wall = time.perf_counter() - t0
            out.wall_s += wall
            latencies.append(wall * 1e3)
            digest = placement_digest(served.schedule)
            digests.append(f"{served.outcome}:{digest}")
            if served.outcome != "hit":
                stored[served.fingerprint] = digest
                out.checks.append((graph.name, graph, state.cluster, served.schedule))
                miss_schedule_s += served.schedule.scheduling_time
            else:
                hits += 1
                if stored.get(served.fingerprint) != digest:
                    out.fail(f"{graph.name}: hit differs from the schedule stored at its miss")
        cache_stats = dict(state.service.cache.stats)
    finally:
        shutil.rmtree(state.cache_dir, ignore_errors=True)
    out.digest = _combine(digests)
    out.facts.update(
        schedule_s=miss_schedule_s,
        events=float(out.attempted),
        requests=float(out.attempted),
        hits=float(hits),
        disk_hits=float(cache_stats["disk_hits"]),
    )
    return out


#: workload name -> (set-up from (seed, scratch dir), one measured pass)
WORKLOADS: Dict[str, Tuple[Callable[[int, Path], object], Callable[[object], Pass]]] = {
    "locmps-wide": (lambda seed, _dir: setup_offline("locmps-wide", seed), run_offline),
    "locmps-apps": (lambda seed, _dir: setup_offline("locmps-apps", seed), run_offline),
    "online-stream": (lambda seed, _dir: setup_online(seed), run_online),
    "cache-requests": (lambda seed, d: setup_cache(seed, d / "cache"), run_cache),
}
