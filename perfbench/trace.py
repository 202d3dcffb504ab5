"""Outside-in tracing: spans around the program's public entry points.

:func:`traced` replaces a fixed list of functions and methods with
wrappers that record one span per call — name, start, end and parent —
into a :class:`SpanRecorder`, and restores every replaced attribute on
exit, also when the traced code raises. Nothing under ``src/`` knows it is
being traced. A layer's self time is its spans' duration minus the part
covered by their child spans.

Spans live in four flat arrays (24 bytes each), so a traced pass of a few
million calls stays within tens of megabytes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np


class SpanRecorder:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: counts the wrappers read off arguments and results
        self.counts: Dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def durations(self, name: str) -> np.ndarray:
        """Durations of *name*'s spans in call order (seconds)."""
        if name not in self._ids:
            return np.zeros(0)
        names = np.frombuffer(self.name, dtype=np.int32)
        mask = names == self._ids[name]
        return (np.frombuffer(self.end) - np.frombuffer(self.start))[mask]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        ``total_s`` counts a span nested directly in a span of the same
        name only once; ``self_s`` subtracts each span's direct children.
        """
        n = len(self.start)
        out: Dict[str, Dict[str, float]] = {}
        if n == 0:
            return out
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        nested = np.zeros(n, dtype=bool)
        nested[has_parent] = names[parent[has_parent]] == names[has_parent]
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "calls": float(mask.sum()),
                "total_s": float(dur[mask & ~nested].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out


# -- wrappers ----------------------------------------------------------------

#: optional (before, after) pair around a wrapped call: ``before(args,
#: kwargs)`` snapshots state, ``after(rec, args, kwargs, result, snapshot)``
#: turns the change into counts
Hook = Tuple[
    Callable[[Tuple[Any, ...], Dict[str, Any]], Any],
    Callable[[SpanRecorder, Tuple[Any, ...], Dict[str, Any], Any, Any], None],
]


def _span_wrapper(fn: Callable, rec: SpanRecorder, name: str, hook: Optional[Hook]) -> Callable:
    nid = rec.name_id(name)
    if inspect.isgeneratorfunction(fn):
        # the work happens while the caller iterates: one span per step
        @functools.wraps(fn)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            it = fn(*args, **kwargs)
            while True:
                idx = rec.open(nid)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                yield value

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        snapshot = hook[0](args, kwargs) if hook is not None else None
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook[1](rec, args, kwargs, result, snapshot)
        return result

    return wrapper


def _locbs_cache(args: tuple, kwargs: dict) -> Any:
    # locbs_schedule(graph, cluster, allocation, options, context, tracer, cost_cache, ...)
    return kwargs.get("cost_cache", args[6] if len(args) > 6 else None)


def _locbs_before(args: tuple, kwargs: dict) -> int:
    cache = _locbs_cache(args, kwargs)
    return cache.stats["probes_considered"] if cache is not None else 0


def _locbs_after(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, before: int) -> None:
    rec.counts["locbs.placements"] += len(result.schedule)
    cache = _locbs_cache(args, kwargs)
    if cache is not None:
        rec.counts["locbs.probes"] += cache.stats["probes_considered"] - before


_LOCMPS_STATS = (
    ("memo_stats", "hits", "locmps.memo_hits"),
    ("memo_stats", "misses", "locmps.memo_misses"),
    ("warm_start_stats", "attempted", "locmps.warm_attempted"),
    ("warm_start_stats", "adopted", "locmps.warm_adopted"),
)


def _locmps_before(args: tuple, kwargs: dict) -> List[int]:
    return [getattr(args[0], attr)[key] for attr, key, _ in _LOCMPS_STATS]


def _locmps_after(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, before: List[int]) -> None:
    for (attr, key, name), old in zip(_LOCMPS_STATS, before):
        rec.counts[name] += getattr(args[0], attr)[key] - old


def _transfer_before(args: tuple, kwargs: dict) -> int:
    return args[0].stats["transfer_hits"]


def _transfer_after(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, before: int) -> None:
    rec.counts["costcache.transfer_hits"] += args[0].stats["transfer_hits"] - before


def _place_after(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any, before: Any) -> None:
    rec.counts["online.probes"] += result.probes_considered


_LOCMPS: Hook = (_locmps_before, _locmps_after)
_LOCBS: Hook = (_locbs_before, _locbs_after)
_TRANSFER: Hook = (_transfer_before, _transfer_after)
_PLACE: Hook = (lambda args, kwargs: None, _place_after)


#: (module, attribute path, span name, hook) — the layer boundaries traced.
#: Module-level functions are replaced where their caller looks them up.
TARGETS: List[Tuple[str, str, str, Optional[Hook]]] = [
    ("repro.schedulers.locmps", "LocMpsScheduler.run", "locmps.run", _LOCMPS),
    ("repro.schedulers.locmps", "locbs_schedule", "locbs.schedule", _LOCBS),
    ("repro.graph.pseudo", "ScheduleDAG.__init__", "graph.sdag_build", None),
    ("repro.graph.pseudo", "ScheduleDAG.add_pseudo_edge", "graph.sdag_build", None),
    ("repro.graph.pseudo", "ScheduleDAG.critical_path", "graph.critical_path", None),
    ("repro.schedule.timeline", "ProcessorTimeline.reserve", "timeline.reserve", None),
    ("repro.schedule.timeline", "ProcessorTimeline.idle_with_horizon", "timeline.query", None),
    ("repro.schedule.timeline", "ProcessorTimeline.idle_sweep", "timeline.query", None),
    ("repro.schedule.timeline", "ProcessorTimeline.is_free", "timeline.query", None),
    ("repro.schedule.timeline", "ProcessorTimeline.release_times_after", "timeline.query", None),
    ("repro.schedule.timeline", "ProcessorTimeline.earliest_available", "timeline.query", None),
    ("repro.schedule.placement_index", "PlacementIndex.blockers", "index.blockers", None),
    ("repro.schedulers.costcache", "CostCache.transfer_time", "costcache.transfer", _TRANSFER),
    ("repro.schedulers.costcache", "CostCache.edge_cost_map", "costcache.edge_cost_map", None),
    ("repro.redistribution.cost", "RedistributionModel.transfer_time", "redistribution.transfer", None),
    ("repro.online.placer", "IncrementalPlacer.place", "online.place", _PLACE),
    ("repro.online.placer", "IncrementalPlacer.release", "online.release", None),
    ("repro.online.admission", "AdmissionPolicy.decide", "online.admission", None),
    ("repro.online.daemon", "verify_realized", "online.audit", None),
    ("repro.schedule.timeline", "ProcessorTimeline.check_invariants", "online.audit", None),
    ("repro.cache.service", "CachedScheduleService.request_key", "cache.fingerprint", None),
    ("repro.cache.store", "ScheduleCache.lookup", "cache.lookup", None),
    ("repro.cache.store", "ScheduleCache.store", "cache.store", None),
    ("repro.cache.store", "ScheduleCache.nearest", "cache.nearest", None),
]


def _owner(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def traced(rec: SpanRecorder) -> Iterator[None]:
    """Wrap every :data:`TARGETS` entry; restore them all on exit.

    Targets that cannot be found (a later revision may have renamed them)
    are reported on stderr and left alone; their layers then read zero.
    """
    saved: List[Tuple[Any, str, bool, Any]] = []
    missing: List[str] = []
    try:
        for module, path, name, hook in TARGETS:
            try:
                owner, attr = _owner(module, path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module}.{path}")
                continue
            own = attr in vars(owner)
            saved.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, _span_wrapper(original, rec, name, hook))
        if missing:
            print(f"perfbench: not traced (missing): {', '.join(missing)}", file=sys.stderr)
        yield
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rec: SpanRecorder, facts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    s = rec.summary()
    c = rec.counts

    def total(name: str) -> float:
        return s.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return s.get(name, {}).get("calls", 0.0)

    memo_calls = c["locmps.memo_hits"] + c["locmps.memo_misses"]
    place = rec.durations("online.place") * 1e3
    decile = len(place) // 10
    growth = (
        float(place[-decile:].mean() / place[:decile].mean()) if decile else 0.0
    )
    placements = c["locbs.placements"]
    return {
        "locmps.locbs_calls": calls("locbs.schedule"),
        "locmps.memo_hit_ratio": _ratio(c["locmps.memo_hits"], memo_calls),
        "locmps.self_s": total("locmps.run") - total("locbs.schedule"),
        "graph.sdag_build_s": total("graph.sdag_build"),
        "graph.critical_path_calls": calls("graph.critical_path"),
        "graph.critical_path_s": total("graph.critical_path"),
        "locbs.self_s": s.get("locbs.schedule", {}).get("self_s", 0.0),
        "locbs.placements": placements,
        "locbs.placements_per_s": _ratio(placements, total("locbs.schedule")),
        "locbs.probes": c["locbs.probes"],
        "timeline.reserve_calls": calls("timeline.reserve"),
        "timeline.reserve_s": total("timeline.reserve"),
        "timeline.query_s": total("timeline.query"),
        "index.blockers_s": total("index.blockers"),
        "costcache.transfer_calls": calls("costcache.transfer"),
        "costcache.transfer_hit_ratio": _ratio(
            c["costcache.transfer_hits"], calls("costcache.transfer")
        ),
        "costcache.transfer_s": total("costcache.transfer"),
        "costcache.edge_cost_map_s": total("costcache.edge_cost_map"),
        "redistribution.transfer_s": total("redistribution.transfer"),
        "online.place_calls": float(len(place)),
        "online.place_p50_ms": _percentile(place, 50),
        "online.place_p99_ms": _percentile(place, 99),
        "online.probes_per_place": _ratio(c["online.probes"], len(place)),
        "online.release_s": total("online.release"),
        "online.admission_s": total("online.admission"),
        "online.audit_s": total("online.audit"),
        "online.deferred": facts.get("deferred", 0.0),
        "online.rejected": facts.get("rejected", 0.0),
        "online.chart_intervals": facts.get("chart_intervals", 0.0),
        "online.place_growth": growth,
        "cache.fingerprint_s": total("cache.fingerprint"),
        "cache.lookup_s": total("cache.lookup"),
        "cache.store_s": total("cache.store"),
        "cache.nearest_s": total("cache.nearest"),
        "cache.hit_ratio": _ratio(facts.get("hits", 0.0), facts.get("requests", 0.0)),
        "cache.disk_hit_share": _ratio(facts.get("disk_hits", 0.0), facts.get("hits", 0.0)),
        "cache.warm_adopt_ratio": _ratio(c["locmps.warm_adopted"], c["locmps.warm_attempted"]),
        # only the cache workload runs LoC-MPS per operation on a miss
        "cache.miss_schedule_s": total("locmps.run") if "hits" in facts else 0.0,
    }
