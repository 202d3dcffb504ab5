"""LoCBS — Locality Conscious Backfill Scheduling (paper Algorithm 2).

Given a task graph and a fixed processor allocation ``np(t)``, LoCBS maps
each task to a concrete processor set and start time:

1. Among ready tasks (all predecessors placed), pick the one with the
   highest priority ``bottomL(t) + max_parent wt(e)`` — bottom levels use the
   allocation-time cost model.
2. Probe every *hole* of the 2-D chart that could hold the task: candidate
   start times are the ready time plus every interval boundary after it (the
   only instants at which the idle set changes).
3. In each hole, take the processor subset with maximum *locality* (bytes of
   the task's input data already resident), time the inbound block-cyclic
   redistribution, and keep the placement minimizing the task's finish time.
4. If the task started later than its data-ready time, the wait was induced
   by resource contention: add zero-weight *pseudo-edges* from the tasks
   whose completion released the processors, building the schedule-DAG
   ``G'`` that the LoC-MPS outer loop analyses.

With ``cluster.overlap=False``, the inbound redistribution also occupies the
destination processors (the busy rectangle becomes ``comm + comp``) —
sender-side occupancy is not modelled, matching the asymmetric I/O cost the
paper attributes to non-overlapping systems.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.cluster import Cluster
from repro.exceptions import ScheduleError
from repro.graph import TaskGraph
from repro.graph.pseudo import ScheduleDAG
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.schedule import (
    IdleSweep,
    PlacedTask,
    PlacementIndex,
    ProcessorTimeline,
    Schedule,
)
from repro.schedulers.base import SchedulingResult, clamp_allocation
from repro.schedulers.context import SchedulingContext
from repro.schedulers.costcache import CostCache, GraphInvariants
from repro.schedulers.provenance import (
    HOLE_TOO_SHORT,
    LOST,
    TOO_FEW_FREE,
    WON,
    CandidateProbe,
    PlacementDecision,
    ProvenanceRecorder,
)
from repro.utils.intervals import EPS

__all__ = [
    "LocbsOptions",
    "PlacementTrie",
    "ReadyQueue",
    "locbs_schedule",
    "splice_schedule",
    "task_priorities",
]

#: tolerance when matching a blocked start time against finish times
_PSEUDO_TOL = 1e-6


class TransferTimer(Protocol):
    """What the placement hot path needs from a redistribution model."""

    def transfer_time(
        self,
        src_procs: Tuple[int, ...],
        dst_procs: Tuple[int, ...],
        volume: float,
    ) -> float: ...


@dataclass(frozen=True)
class LocbsOptions:
    """Behaviour switches for the LoCBS engine.

    ``backfill``
        ``True`` probes every hole of the chart (full Algorithm 2);
        ``False`` degrades to latest-free-time placement — the cheaper
        variant of the paper's Fig 6 ablation (see
        :func:`repro.schedulers.nobackfill.nobackfill_schedule`).
    ``comm_blind``
        Treat every data volume as zero when *timing* the schedule. Used to
        reproduce iCASLB, which assumes negligible inter-task communication.
    ``locality_blind``
        Ignore resident data when choosing processor subsets (ablation of
        the paper's headline idea): transfers are still paid at their true
        locality-aware cost, but placement no longer seeks reuse.
    """

    backfill: bool = True
    comm_blind: bool = False
    locality_blind: bool = False


def task_priorities(
    graph: TaskGraph,
    bl: Mapping[str, float],
    est_costs: Mapping[Tuple[str, str], float],
    preds: Optional[Mapping[str, Sequence[str]]] = None,
) -> Dict[str, float]:
    """Algorithm 2 priorities: ``bottomL(t) + max_parent wt(e)``, all tasks.

    Priorities depend only on the (fixed) allocation, so one O(V + E) pass
    replaces the per-comparison closure the ready-queue sort used to call.
    *preds* (optional) supplies precomputed predecessor lists — the cached
    :class:`~repro.schedulers.costcache.GraphInvariants` — to skip the
    per-task networkx traversal.
    """
    prio: Dict[str, float] = {}
    for t in graph.tasks():
        parents = graph.predecessors(t) if preds is None else preds[t]
        max_in = max((est_costs[(u, t)] for u in parents), default=0.0)
        prio[t] = bl[t] + max_in
    return prio


def _bottom_levels_under(
    inv: GraphInvariants,
    graph: TaskGraph,
    alloc: Mapping[str, int],
    est_costs: Mapping[Tuple[str, str], float],
) -> Dict[str, float]:
    """``bottomL(t)`` under *alloc*, over the cached graph invariants.

    The same reverse-topological relaxation as
    :func:`repro.graph.bottom_levels` — each vertex takes the max over its
    successors in identical iteration order, so results are bit-identical —
    minus the per-call acyclicity check and networkx traversals (acyclicity
    was already established when the invariants were built).
    """
    et = graph.et
    succs = inv.succs
    bl: Dict[str, float] = {}
    for v in reversed(inv.order):
        best = 0.0
        for w in succs[v]:
            cand = est_costs[(v, w)] + bl[w]
            if cand > best:
                best = cand
        bl[v] = et(v, alloc[v]) + best
    return bl


class ReadyQueue:
    """Max-heap of ready tasks ordered by (priority desc, name asc).

    Pop order is identical to repeatedly re-sorting the ready list by
    ``(-priority(t), t)`` and taking the head (property-tested against
    that reference in ``tests/test_perf_equivalence.py``): priorities are
    fixed for the whole LoCBS call, so a binary heap turns the former
    O(R log R) sort per placement into O(log R) per push/pop.
    """

    __slots__ = ("_prio", "_heap")

    def __init__(self, priorities: Mapping[str, float]) -> None:
        self._prio = priorities
        self._heap: List[Tuple[float, str]] = []

    def push(self, task: str) -> None:
        heapq.heappush(self._heap, (-self._prio[task], task))

    def pop(self) -> str:
        """Remove and return the highest-priority ready task."""
        return heapq.heappop(self._heap)[1]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


#: one trie node: the pop's ``(placement, comm_times, est)`` and its children
_TrieNode = Tuple[PlacedTask, Dict[Tuple[str, str], float], float, "_Children"]
#: a node's children, keyed on the next pop's ``(task, clamped width)``
_Children = Dict[Tuple[str, int], _TrieNode]


class PlacementTrie:
    """LoCBS placements memoized on the pop sequence, for one graph.

    A root-to-node path spells the first pops of some earlier LoCBS run as
    ``(task, width)`` pairs; the node holds that pop's placement, its
    in-edge communication times and its data-ready time. A placement is a
    function of the chart (the earlier pops' placements), the task's width
    and its parents' placements (popped earlier), so every run whose pops
    start with the same pairs places them identically — whatever the
    priorities that produced that order. The ready loop walks the trie
    along its own pops, reuses each hit, and places (and inserts) only the
    tail after the first miss.

    Valid for one graph, cluster, :class:`LocbsOptions` and context: the
    LoC-MPS outer loop holds one per :meth:`~LocMpsScheduler.run`.
    *limit* caps the node count: an insert that would pass it clears the
    trie instead, and the run that hit the cap finishes cold. ``resumed``
    counts the placements served from the trie over its lifetime.
    """

    __slots__ = ("root", "size", "limit", "resumed")

    def __init__(self, limit: Optional[int] = None) -> None:
        self.root: _Children = {}
        self.size = 0
        self.limit = limit
        self.resumed = 0

    def insert(
        self,
        children: _Children,
        key: Tuple[str, int],
        placement: PlacedTask,
        comm_times: Dict[Tuple[str, str], float],
        est: float,
    ) -> Optional[_Children]:
        """Add one pop under *children*; its own children, or ``None``.

        ``None`` means the cap cleared the trie, so *children* is no
        longer reachable and the caller stops inserting.
        """
        if self.limit is not None and self.size >= self.limit:
            self.root = {}
            self.size = 0
            return None
        node: _TrieNode = (placement, comm_times, est, {})
        children[key] = node
        self.size += 1
        return node[3]


def locbs_schedule(
    graph: TaskGraph,
    cluster: Cluster,
    allocation: Mapping[str, int],
    options: LocbsOptions = LocbsOptions(),
    context: Optional["SchedulingContext"] = None,
    tracer: Optional[Tracer] = None,
    cost_cache: Optional[CostCache] = None,
    provenance: Optional[ProvenanceRecorder] = None,
    *,
    prefix_trie: Optional[PlacementTrie] = None,
) -> SchedulingResult:
    """Schedule *graph* under *allocation* with locality-conscious backfill.

    *context* (optional) pins mid-execution machine state: processors busy
    until given release times, and data from already-finished producers
    resident on concrete processor sets (see
    :mod:`repro.schedulers.context`). Used by the on-line rescheduling
    framework.

    *tracer* (optional) records per-placement observability events
    (``task_placed``, ``backfill_hit``, ``locality_hit``/``miss``,
    ``pseudo_edge_added``, ``redistribution_costed``); the default no-op
    tracer keeps the hole-scan hot path free of event construction.

    *cost_cache* (optional) shares memoized edge-cost estimates and
    concrete transfer times across calls — the LoC-MPS outer loop passes
    one run-scoped :class:`~repro.schedulers.costcache.CostCache` so each
    look-ahead step re-derives only the costs its allocation change
    touched. Omitted, a private per-call cache still dedupes the repeated
    transfer timings of the hole scan. Caching never changes the produced
    schedule (cached values are the exact uncached results).

    *provenance* (optional) collects one
    :class:`~repro.schedulers.provenance.PlacementDecision` per placed
    task — every candidate hole probed, its trial timing, why it lost —
    and, when a tracer is active, mirrors each decision as a
    ``placement_decision`` trace event. Recording never changes the
    schedule; ``None`` (the default) keeps the scan free of bookkeeping.

    *prefix_trie* (optional) resumes the run from the longest prefix of
    its pop sequence already placed by an earlier call sharing the trie
    (see :class:`PlacementTrie`) and records the freshly placed tail. The
    schedule is the one a cold call produces; only the resumed tasks skip
    the hole scan, so their ``backfill_hit``, ``locality_*`` and
    ``redistribution_costed`` events do not fire, and one
    ``locbs_resumed`` event (``prefix``, ``tasks``) reports the reuse.
    Every caller sharing a trie must pass the same graph, cluster,
    options and context.
    """
    tracer = tracer or NULL_TRACER
    alloc = clamp_allocation(graph, cluster, allocation)
    cache = cost_cache if cost_cache is not None else CostCache(cluster)

    timeline = ProcessorTimeline(cluster.processors)
    if context is not None:
        for proc, ready in context.processor_ready.items():
            if ready > 0:
                timeline.reserve([proc], 0.0, ready)
    schedule = Schedule(cluster, scheduler="locbs")
    index = PlacementIndex()
    vertex_weights: Dict[str, float] = {}
    edge_weights: Dict[Tuple[str, str], float] = {}
    sdag_pseudo: List[Tuple[str, str]] = []

    for placement, comm_times, est_tp in _ready_loop(
        graph, cluster, alloc, options, cache, timeline, context, tracer,
        provenance, prefix_trie,
    ):
        tp = placement.name
        if provenance is not None and tracer.enabled:
            tracer.event(
                "placement_decision", **provenance.decisions[-1].to_dict()
            )
        schedule.place(placement)
        index.add(placement)
        if tracer.enabled:
            tracer.event(
                "task_placed",
                task=tp,
                start=placement.start,
                exec_start=placement.exec_start,
                finish=placement.finish,
                width=placement.width,
                processors=list(placement.processors),
            )
        for (u, v), ct in comm_times.items():
            schedule.edge_comm_times[(u, v)] = ct
            edge_weights[(u, v)] = ct  # non-graph (external) keys are ignored
                                       # by the ScheduleDAG constructor
        vertex_weights[tp] = placement.exec_duration

        # Pseudo-edges (Algorithm 2, steps 17-18): the task waited on
        # resources, not data — record which finishing tasks released them.
        if placement.start > est_tp + _PSEUDO_TOL:
            for blocker in index.blockers(
                placement, placement.start, tol=_PSEUDO_TOL
            ):
                sdag_pseudo.append((blocker, tp))
                if tracer.enabled:
                    tracer.event(
                        "pseudo_edge_added",
                        src=blocker,
                        dst=tp,
                        wait=placement.start - est_tp,
                    )

    sdag = ScheduleDAG(graph, vertex_weights, edge_weights)
    for u, v in sdag_pseudo:
        sdag.add_pseudo_edge(u, v)
    return SchedulingResult(schedule=schedule, sdag=sdag)


def splice_schedule(
    graph: TaskGraph,
    cluster: Cluster,
    allocation: Mapping[str, int],
    timeline: ProcessorTimeline,
    *,
    release_floor: float = 0.0,
    options: LocbsOptions = LocbsOptions(),
    cost_cache: Optional[CostCache] = None,
    index: Optional[PlacementIndex] = None,
) -> List[PlacedTask]:
    """Place *graph* into a **live** chart, mutating *timeline* in place.

    The online daemon's incremental hot path: where :func:`locbs_schedule`
    starts from an empty machine, this runs the identical ready-queue loop
    and hole scan against whatever busy intervals *timeline* already
    holds — an arriving job is spliced around every committed placement,
    probing only ``release_floor`` (its submission time) and the release
    times after it, so the per-event cost scales with the job and the
    chart's *open* holes, not with the accumulated history.

    Determinism contract: the produced placements are a pure function of
    the chart's *content* (the timeline's sorted structures are
    insertion-order independent), the graph, the allocation vector, and
    ``release_floor`` — which is what lets the cold-rebuild differential
    arm replay the same splices from an empty machine and demand
    bit-identical results (``tests/test_online_daemon.py``).

    *index* (optional) receives every placement in commit order, so a
    persistent :class:`~repro.schedule.PlacementIndex` can answer
    "which job blocked this arrival" queries across events. *cost_cache*
    (optional) is the cross-event memo — cached values are exact, so
    sharing it never changes the schedule. Returns the placements in
    commit order; task names must not collide with tasks already on the
    chart (the daemon namespaces them per job).
    """
    alloc = clamp_allocation(graph, cluster, allocation)
    cache = cost_cache if cost_cache is not None else CostCache(cluster)
    context = SchedulingContext(release_floor=release_floor)
    out: List[PlacedTask] = []
    for placement, _comm, _est in _ready_loop(
        graph, cluster, alloc, options, cache, timeline, context
    ):
        out.append(placement)
        if index is not None:
            index.add(placement)
    return out


def _ready_loop(
    graph: TaskGraph,
    cluster: Cluster,
    alloc: Mapping[str, int],
    options: LocbsOptions,
    cache: CostCache,
    timeline: ProcessorTimeline,
    context: Optional["SchedulingContext"],
    tracer: Tracer = NULL_TRACER,
    provenance: Optional[ProvenanceRecorder] = None,
    trie: Optional[PlacementTrie] = None,
) -> Iterator[Tuple[PlacedTask, Dict[Tuple[str, str], float], float]]:
    """The ready-queue loop of Algorithm 2, shared by both entry points.

    Pops the highest-priority ready task, places it (:func:`_place_task`),
    reserves it on *timeline* and yields ``(placement, comm_times, est)``
    before releasing its successors. With a *trie*, each pop first looks
    up its ``(task, width)`` child: a hit reuses the stored result, the
    first miss leaves the trie and every later pop is placed and inserted.
    """
    inv = cache.graph_invariants(graph)
    preds = inv.preds

    # Priorities (Algorithm 2, step 4): bottom level under the current
    # allocation plus the heaviest inbound edge estimate. Both are fixed
    # for the whole call, so they are computed once up front.
    est_costs = cache.edge_cost_map(graph, alloc, comm_blind=options.comm_blind)
    bl = _bottom_levels_under(inv, graph, alloc, est_costs)
    ready = ReadyQueue(task_priorities(graph, bl, est_costs, preds=preds))

    waiting = {t: len(ps) for t, ps in preds.items()}
    for t in graph.tasks():
        if waiting[t] == 0:
            ready.push(t)

    placed: Dict[str, PlacedTask] = {}
    #: the children of the trie node reached so far (None: not walking)
    children = trie.root if trie is not None else None
    resumed = 0
    for _ in range(len(waiting)):
        if not ready:
            raise ScheduleError("no ready task but tasks remain: cyclic graph?")
        tp = ready.pop()
        hit = children.get((tp, alloc[tp])) if children else None
        if hit is not None:
            placement, comm_times, est_tp, children = hit
            resumed += 1
        else:
            placement, comm_times, est_tp = _place_task(
                tp, preds[tp], graph, cluster, alloc, cache, timeline, placed,
                options, context, tracer, provenance,
            )
            if children is not None:
                children = trie.insert(
                    children, (tp, alloc[tp]), placement, comm_times, est_tp
                )
        timeline.reserve(placement.processors, placement.start, placement.finish)
        placed[tp] = placement
        yield placement, comm_times, est_tp
        for succ in inv.succs[tp]:
            waiting[succ] -= 1
            if waiting[succ] == 0:
                ready.push(succ)
    if resumed:
        trie.resumed += resumed
        if tracer.enabled:
            tracer.event("locbs_resumed", prefix=resumed, tasks=len(placed))


def _place_task(
    tp: str,
    parents: Sequence[str],
    graph: TaskGraph,
    cluster: Cluster,
    alloc: Mapping[str, int],
    cache: CostCache,
    timeline: ProcessorTimeline,
    placed: Mapping[str, PlacedTask],
    options: LocbsOptions,
    context: Optional["SchedulingContext"],
    tracer: Tracer,
    provenance: Optional[ProvenanceRecorder],
) -> Tuple[PlacedTask, Dict[Tuple[str, str], float], float]:
    """Find the minimum-finish-time hole for *tp* (Algorithm 2, steps 5-16).

    *parents* is *tp*'s cached predecessor list, *placed* maps placed
    tasks to their placements. The candidate starts — the data-ready time
    plus the chart's release times (backfill) or the processors' latest
    free times (no backfill) — go through the one hole scan, :func:`_scan`.
    *provenance* turns on its probe sink; *tracer* gets the winner's events.

    Returns the placement, the actual per-in-edge communication times, and
    ``est(tp)`` (the data-ready lower bound used for pseudo-edge detection).
    """
    np_t = alloc[tp]
    et = graph.et(tp, np_t)
    parent_info: List[Tuple[str, Tuple[int, ...], float, float]] = []
    for u in parents:
        pu = placed[u]
        volume = 0.0 if options.comm_blind else graph.data_volume(u, tp)
        parent_info.append((u, pu.processors, pu.finish, volume))
    if context is not None:
        for ext in context.inputs_for(tp):
            volume = 0.0 if options.comm_blind else ext.volume
            parent_info.append(
                (f"__ext__{ext.label}", ext.processors, ext.ready_time, volume)
            )

    ready_base = max((ft for _, _, ft, _ in parent_info), default=0.0)
    if context is not None and context.release_floor > ready_base:
        # An online arrival cannot be backfilled before its submission
        # time, even into holes the chart still has there (floor 0.0 for
        # every offline caller, so this clamp is a no-op off the daemon).
        ready_base = context.release_floor

    # Per-processor locality score: bytes of tp's input already resident.
    # Sparse: empty when the task has no incoming data (CCR=0, comm-blind),
    # which lets the subset selection skip locality ranking entirely.
    locality: Dict[int, float] = {}
    if not options.locality_blind:
        for _, procs, _, volume in parent_info:
            if volume > 0:
                share = volume / len(procs)
                for p in procs:
                    locality[p] = locality.get(p, 0.0) + share

    # Provenance bookkeeping, None-guarded so the default scan stays free
    # of it: raw (tau, procs, start, exec_start, finish, tag) tuples are
    # collected during the scan and frozen into CandidateProbes at the end,
    # once the winner (and hence every loser's margin) is known.
    probes: Optional[List[_Probe]] = None if provenance is None else []
    latest_free: Optional[List[Tuple[int, float]]] = None
    candidates: Iterable[float]
    if options.backfill:
        # Only busy-interval *ends* can enlarge the idle set, so they (plus
        # the data-ready time) are the only start times worth probing.
        # Generated lazily: the ``tau + et`` bound usually closes the ladder
        # within a few probes, so the tail is never materialized.
        candidates = chain(
            (ready_base,), timeline.release_times_after(ready_base)
        )
    else:
        latest_free = [
            (p, timeline.earliest_available(p)) for p in cluster.processors
        ]
        candidates = _latest_free_ladder(
            ready_base, latest_free, merge=probes is None
        )

    best, entered = _scan(
        candidates, np_t, et, parent_info, locality, cache, timeline,
        cluster.overlap, latest_free, probes,
    )
    if best is None:
        # Unreachable: the final candidate (the chart horizon) always has all
        # processors free forever. Guard anyway.
        raise ScheduleError(f"no feasible slot found for task {tp!r}")

    finish, start, exec_start, chosen, won_tau = best
    placement = PlacedTask(
        name=tp, start=start, exec_start=exec_start, finish=finish, processors=chosen
    )
    comm_times = {
        (u, tp): cache.transfer_time(procs, chosen, volume)
        for u, procs, _, volume in parent_info
    }
    est_tp = max(
        (ft + comm_times[(u, tp)] for u, _, ft, _ in parent_info),
        default=0.0,
    )
    if probes is None:
        # Hot-path telemetry only: the recording (explain) re-run must not
        # count the same placements twice.
        cache.stats["probes_considered"] += entered
    else:
        winner_probe = -1
        cands: List[CandidateProbe] = []
        for i, (c_tau, procs, c_start, c_exec, c_finish, tag) in enumerate(
            probes
        ):
            if tag is LOST:  # feasible probe: won or lost on finish time
                won = c_tau == won_tau  # one probe per candidate start
                if won:
                    winner_probe = i
                outcome = WON if won else LOST
                margin = 0.0 if won else max(0.0, c_finish - finish)
            else:
                outcome, margin = tag, math.inf
            comm = (
                sum(
                    cache.transfer_time(pp, procs, vol)
                    for _, pp, _, vol in parent_info
                )
                if procs
                else 0.0
            )
            cands.append(
                CandidateProbe(
                    tau=c_tau,
                    processors=procs,
                    start=c_start,
                    exec_start=c_exec,
                    finish=c_finish,
                    resident_bytes=sum(locality.get(p, 0.0) for p in procs),
                    comm_time=comm,
                    outcome=outcome,
                    margin=margin,
                )
            )
        provenance.record(
            PlacementDecision(
                task=tp,
                width=np_t,
                ready_time=ready_base,
                candidates=cands,
                winner=winner_probe,
                pruned=len(probes) - entered,
            )
        )
    if tracer.enabled:
        # A backfill proper: some chosen processor has a later reservation
        # bounding the hole it was picked from (latest-free probing sees
        # every horizon as infinite, so it never backfills).
        if options.backfill and any(
            math.isfinite(timeline.free_horizon(p, won_tau)) for p in chosen
        ):
            tracer.event("backfill_hit", task=tp, start=start, finish=finish)
        if locality:
            resident = sum(locality.get(p, 0.0) for p in chosen)
            tracer.event(
                "locality_hit" if resident > 0.0 else "locality_miss",
                task=tp,
                resident_bytes=resident,
            )
        for (u, _), ct in comm_times.items():
            tracer.event("redistribution_costed", src=u, dst=tp, time=ct)
    return placement, comm_times, est_tp


def _latest_free_ladder(
    ready_base: float,
    latest_free: Sequence[Tuple[int, float]],
    merge: bool,
) -> List[float]:
    """No-backfill candidate starts: *ready_base* plus the later free times.

    With *merge*, near-equal start times are merged where provably
    outcome-identical: the eligible set at tau is ``{p: eat_p <= tau +
    EPS}``, so a candidate within EPS of the last kept one with no eat
    inside ``(kept + EPS, t + EPS]`` exposes the *identical* set ->
    identical chosen subset -> a finish nondecreasing in tau. It can never
    beat the kept probe (best updates require a strict EPS improvement),
    so dropping it preserves the schedule. The recording scan passes
    ``merge=False``: provenance pins the full probe list.
    """
    eats = sorted({eat for _, eat in latest_free})
    raw = sorted({ready_base} | {t for t in eats if t > ready_base + EPS})
    if not merge:
        return raw
    merged = [raw[0]]
    kept = raw[0]
    kept_hi = bisect_right(eats, kept + EPS)
    for t in raw[1:]:
        hi = bisect_right(eats, t + EPS)
        if t - kept <= EPS and hi == kept_hi:
            continue
        merged.append(t)
        kept, kept_hi = t, hi
    return merged


#: one raw probe record: (tau, procs, start, exec_start, finish, tag)
_Probe = Tuple[float, Tuple[int, ...], float, float, float, str]

#: the (start, exec_start, finish) of a probe that never yielded a subset
_NO_TRIAL = (math.inf, math.inf, math.inf)


def _scan(
    candidates: Iterable[float],
    np_t: int,
    et: float,
    parent_info: Sequence[Tuple[str, Tuple[int, ...], float, float]],
    locality: Mapping[int, float],
    model: TransferTimer,
    timeline: ProcessorTimeline,
    overlap: bool,
    latest_free: Optional[Sequence[Tuple[int, float]]] = None,
    probes: Optional[List[_Probe]] = None,
) -> Tuple[Optional[Tuple[float, float, float, Tuple[int, ...], float]], int]:
    """The hole scan of Algorithm 2 — the only one LoCBS runs.

    Candidate start times are probed in ascending order: classify the idle
    processors, take the maximum-locality subset (key ``(-locality,
    -horizon, proc)``), time its window, check it against the chart, and
    keep the earliest finish (strict ``EPS`` improvement). The scan stops
    at the first ``tau`` with ``tau + et >= best_finish - EPS``: nothing
    starting there or later can finish earlier. Three shortcuts keep it
    cheap without changing a single choice:

    * **Locality groups** — the key ranks whole groups of equal resident
      share before horizons matter, so walking the groups in descending
      share order (one ``bisect`` per member) picks the subset whenever
      the groups alone cover the allocation; horizons break ties inside
      the group that straddles the cut. Otherwise the scan classifies the
      machine and ranks it with :func:`_pick_by_locality`.
    * **Timing memo** — trial timings depend on the subset, not the probe
      time, so they are memoized per subset.
    * **Lazy classification** — the first full classification is a plain
      :meth:`ProcessorTimeline.idle_with_horizon` query, later ones
      advance one :class:`IdleSweep`; while the chart's busy count is
      exact, two binary searches skip start times with too few idle
      processors before any classification.

    *latest_free* (``(proc, eat)`` pairs) switches to the no-backfill
    ablation: a processor is idle at ``tau`` iff ``eat <= tau + EPS``,
    forever; the group walk and the busy-count skip read holes, so are off.

    *probes* (optional) is the provenance sink: every probe appends its
    raw ``(tau, procs, start, exec_start, finish, tag)`` record, and the
    scan keeps probing past the bound — those probes only give the losers
    their true margins, never a new winner.

    Bit-identical to the frozen seed scan in :mod:`repro.perf.reference`
    (``tests/test_array_equivalence.py``). Returns ``(best, entered)``:
    the winning ``(finish, start, exec_start, procs, tau)`` and the number
    of probes entered before the bound closed the ladder.
    """
    P = len(timeline.processors)
    row_of = timeline._row
    counts = timeline._counts
    starts_l = timeline._starts_l
    ends_l = timeline._ends_l
    all_starts = timeline._all_starts
    all_ends = timeline._all_ends
    count_skip = timeline.counts_exact and latest_free is None

    # Locality groups: shares descending, members ascending. Equal-share
    # processors are common (a one-parent task spreads volume/width evenly),
    # so groups are few and the descending walk mirrors the sort key. Rows
    # are resolved once here — the walk re-probes every member per probe.
    groups: List[List[Tuple[int, int]]] = []
    if locality and latest_free is None:
        by_val: Dict[float, List[int]] = {}
        for p, v in locality.items():
            by_val.setdefault(v, []).append(p)
        groups = [
            [(p, row_of[p]) for p in sorted(by_val[v])]
            for v in sorted(by_val, reverse=True)
        ]

    #: lazy classification ladder: the first unavoidable classification is
    #: a plain query, the second builds the incremental sweep, later ones
    #: just advance it (probe times ascend; chart frozen during the scan)
    sweep: Optional[IdleSweep] = None
    queried = False

    def classify(tau: float) -> List[Tuple[int, float]]:
        """``(proc, horizon)`` of every processor idle at *tau*."""
        nonlocal sweep, queried
        if latest_free is not None:
            tol = tau + EPS
            return [(p, math.inf) for p, eat in latest_free if eat <= tol]
        if sweep is not None:
            sweep.advance(tau)
        elif queried:
            sweep = timeline.idle_sweep(tau)
        else:
            queried = True
            return timeline.idle_with_horizon(tau)
        return sweep.free_pairs()

    #: chosen subset -> data-ready max (overlap) / comm sum (non-overlap)
    timing_memo: Dict[Tuple[int, ...], float] = {}

    def trial(chosen: Tuple[int, ...], tau: float) -> Tuple[float, ...]:
        """``(start, exec_start, finish)`` of *chosen* at hole start *tau*.

        Without overlap the redistribution runs on the destination ahead
        of the computation; with it, it only delays the computation.
        """
        known = timing_memo.get(chosen)
        if overlap:
            if known is None:
                known = -math.inf
                for _, pprocs, ft, volume in parent_info:
                    arrival = ft + model.transfer_time(pprocs, chosen, volume)
                    if arrival > known:
                        known = arrival
                timing_memo[chosen] = known
            start = known if known > tau else tau
            return start, start, start + et
        if known is None:
            known = 0.0
            for _, pprocs, _, volume in parent_info:
                known += model.transfer_time(pprocs, chosen, volume)
            timing_memo[chosen] = known
        # every candidate is >= ready_base = max parent finish, so the
        # transfer can start at tau itself
        exec_start = tau + known
        return tau, exec_start, exec_start + et

    best: Optional[Tuple[float, float, float, Tuple[int, ...], float]] = None
    entered = 0
    #: keep walking the locality groups only while the walk keeps covering
    #: the allocation — it succeeds at uncontended probes (parents just
    #: released their processors) and reliably fails at contended ones,
    #: where its member probes would just duplicate the classification
    try_groups = bool(groups)
    for tau in candidates:
        if best is not None and tau + et >= best[0] - EPS:
            # no placement at (or after) tau can finish before tau + et,
            # so the ladder is closed
            if probes is None:
                break
        else:
            entered += 1
        tol = tau + EPS
        if count_skip and not try_groups:
            # Global busy-count identity: two binary searches skip start
            # times with too few idle processors before the sweep is even
            # advanced (the deferred events are processed — amortized — at
            # the next surviving probe).
            busy = bisect_right(all_starts, tol) - bisect_right(all_ends, tol)
            if P - busy < np_t:
                if probes is not None:
                    probes.append((tau, (), *_NO_TRIAL, TOO_FEW_FREE))
                continue
        free: Optional[List[Tuple[int, float]]] = None
        # -- subset selection -------------------------------------------------
        need = np_t
        chosen_ph: List[Tuple[int, float]] = []
        if try_groups:
            for group in groups:
                gf: List[Tuple[int, float]] = []
                for p, r in group:
                    el = ends_l[r]
                    idx = bisect_right(el, tol)
                    if idx == counts[r]:
                        gf.append((p, math.inf))
                    else:
                        nxt = starts_l[r][idx]
                        if nxt > tol:
                            gf.append((p, nxt))
                if len(gf) <= need:
                    # the whole group ranks ahead of everything below it
                    chosen_ph.extend(gf)
                    need -= len(gf)
                    if need == 0:
                        break
                else:
                    # the cut falls inside this group: ties break on
                    # (-horizon, proc), exactly the full key's tail
                    gf.sort(key=_hp_key)
                    chosen_ph.extend(gf[:need])
                    need = 0
                    break
            if need:
                try_groups = False
        fast = need == 0
        if fast:
            chosen = tuple(sorted(p for p, _ in chosen_ph))
        else:
            # zero-locality processors are needed: full classification and
            # the full ranking (identical keys, so identical choice)
            free = classify(tau)
            if len(free) < np_t:
                if probes is not None:
                    probes.append((tau, (), *_NO_TRIAL, TOO_FEW_FREE))
                continue
            chosen = _pick_by_locality(free, np_t, locality)
        start, exec_start, finish = trial(chosen, tau)
        # -- feasibility -------------------------------------------------------
        if fast and start == tau:
            # starting inside the probed hole: feasibility is exactly
            # "every chosen horizon covers the window"
            fits = True
            lim = finish - EPS
            for _, h in chosen_ph:
                if h < lim:
                    fits = False
                    break
        else:
            fits = timeline.is_free(chosen, start, finish)
        if not fits:
            # the hole is too short for this window: retry among the
            # processors whose idle hole covers it (Algorithm 2 only
            # considers holes with dur >= et)
            if free is None:
                free = classify(tau)
            roomy = [ph for ph in free if ph[1] >= finish - EPS]
            if len(roomy) >= np_t:
                chosen = _pick_by_locality(roomy, np_t, locality)
                start, exec_start, finish = trial(chosen, tau)
                fits = timeline.is_free(chosen, start, finish)
            if not fits:
                if probes is not None:
                    probes.append(
                        (tau, chosen, start, exec_start, finish, HOLE_TOO_SHORT)
                    )
                continue
        if probes is not None:
            probes.append((tau, chosen, start, exec_start, finish, LOST))
        if best is None or finish < best[0] - EPS:
            best = (finish, start, exec_start, chosen, tau)
    return best, entered


def _hp_key(ph: Tuple[int, float]) -> Tuple[float, int]:
    """``(-horizon, proc)`` — the within-group tie-break of the full key."""
    return (-ph[1], ph[0])


def _pick_by_locality(
    free: Sequence[Tuple[int, float]],
    np_t: int,
    locality: Mapping[int, float],
) -> Tuple[int, ...]:
    """Choose ``np_t`` processors from *free* with maximum resident data.

    *free* holds ``(processor, next_busy_start)`` pairs. Ties prefer
    processors that stay idle longer (they are less likely to make the
    window infeasible), then lower indices for determinism. The returned
    tuple is sorted ascending: processor-set order defines the block-cyclic
    layout, and a canonical order makes any producer/consumer pair with
    identical sets perfectly local.
    """
    if len(free) == np_t:
        return tuple(sorted(ph[0] for ph in free))
    # Decorate-sort-slice: the decoration tuples are exactly the ranking
    # keys (with the unique processor index last, so ordering is total and
    # input-order independent), making this equivalent to
    # ``heapq.nsmallest(np_t, free, key=...)`` — but with the comparison
    # and selection work done by the C-level tuple sort instead of a
    # Python-level heap with a lambda key.
    if locality:
        get = locality.get
        ranked = sorted((-get(p, 0.0), -h, p) for p, h in free)
    else:
        # CCR=0 / comm-blind fast path: no resident data anywhere, rank by
        # idle horizon only.
        ranked = sorted((-h, p) for p, h in free)
    return tuple(sorted(r[-1] for r in ranked[:np_t]))
