"""On-line rescheduling framework (the paper's second future-work item).

The paper closes with: *"Future work is planned on ... incorporation of
the scheduling strategy into a run-time framework for the on-line
scheduling of mixed parallel applications."* This module implements that
framework on top of the library's simulator:

1. schedule the whole application with LoC-MPS;
2. execute the plan under stochastic noise (the simulator stands in for
   the cluster);
3. whenever a task's realized finish time deviates from the plan by more
   than ``deviation_threshold`` (relative), stop, pin everything that has
   already happened — realized processor release times and the concrete
   locations of produced data — and re-run LoC-MPS on the *remaining*
   subgraph under that pinned :class:`~repro.schedulers.context.SchedulingContext`;
4. repeat until the application completes.

The report compares the on-line makespan against the static plan replayed
under the same noise, so the benefit (or cost) of replanning is directly
visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.exceptions import SimulationError
from repro.graph import TaskGraph
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.redistribution import RedistributionModel
from repro.schedule import Schedule
from repro.schedulers.base import Scheduler
from repro.schedulers.context import ExternalInput, SchedulingContext
from repro.schedulers.locmps import LocMpsScheduler
from repro.sim.engine import SimulatedTask, verify_realized
from repro.sim.noise import NoiseModel, NoNoise
from repro.utils.rng import SeedLike, as_generator

__all__ = ["OnlineReport", "OnlineRescheduler"]


@dataclass
class OnlineReport:
    """Outcome of one on-line run."""

    makespan: float
    replans: int
    tasks: Dict[str, SimulatedTask]
    #: the same noise stream applied to the static plan, for comparison;
    #: ``None`` when the run skipped the static replay
    static_makespan: Optional[float] = None

    @property
    def improvement_over_static(self) -> Optional[float]:
        """``static / online`` (> 1 means replanning helped).

        ``None`` when no static baseline was computed (``run(...)`` with
        ``compare_static=False``) — previously this silently divided
        ``nan``, which poisoned downstream aggregates.
        """
        if self.static_makespan is None:
            return None
        return self.static_makespan / self.makespan


class OnlineRescheduler:
    """Execute a task graph with noise, replanning on schedule deviations.

    Parameters
    ----------
    graph, cluster:
        The application and machine.
    scheduler_factory:
        Builds the scheduler for each (re)planning round; receives the
        pinned :class:`SchedulingContext` and must return a
        :class:`~repro.schedulers.base.Scheduler`. Defaults to LoC-MPS.
    noise, seed:
        Stochastic perturbation of task durations and bandwidth (the same
        draws are replayed against the static plan for the comparison).
    deviation_threshold:
        Relative finish-time deviation that triggers a replan. Deviations
        are measured against the *current* plan's predicted finish.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`: each
        (re)planning round records its wall-clock scheduling latency into
        the ``replan_seconds`` histogram and bumps the ``replans``
        counter (the initial plan counts as ``round="initial"``).
    warm_start:
        Seed each *replanning* round's scheduler with the previous
        plan's allocation vector (the remaining subgraph differs from
        the last planned graph by only the tasks that completed — the
        graph-delta regime of :mod:`repro.cache`). Only schedulers
        exposing ``initial_allocation`` (LoC-MPS) participate, and the
        seed is adopted only when strictly profitable, so this can never
        worsen a round's plan. The initial plan is always cold.
    """

    def __init__(
        self,
        graph: TaskGraph,
        cluster: Cluster,
        *,
        scheduler_factory: Optional[
            Callable[[SchedulingContext], Scheduler]
        ] = None,
        noise: Optional[NoiseModel] = None,
        seed: SeedLike = None,
        deviation_threshold: float = 0.15,
        max_replans: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        warm_start: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if deviation_threshold <= 0:
            raise ValueError(
                f"deviation_threshold must be > 0, got {deviation_threshold}"
            )
        self.graph = graph
        self.cluster = cluster
        self.noise = noise or NoNoise()
        self.seed = seed
        self.deviation_threshold = deviation_threshold
        self.max_replans = max_replans
        #: observability sink threaded into the default LoC-MPS factory,
        #: so warm-start adoption (``cache_warm_start`` events) and LoCBS
        #: telemetry from each replanning round land in one trace that
        #: :func:`~repro.obs.registry.registry_from_events` can fold
        self.tracer = tracer or NULL_TRACER
        self._factory = scheduler_factory or (
            lambda ctx: LocMpsScheduler(context=ctx, tracer=self.tracer)
        )
        self.model = RedistributionModel(cluster)
        self.metrics = metrics
        self.warm_start = warm_start

    # -- noise streams -------------------------------------------------------------

    def _draw_factors(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-task duration factors and per-edge bandwidth factors.

        Drawn once, keyed by name, so the on-line run and the static
        comparison see identical perturbations.
        """
        rng = as_generator(self.seed)
        duration = {
            t: self.noise.duration_factor(rng) for t in sorted(self.graph.tasks())
        }
        bandwidth = {
            t: self.noise.bandwidth_factor(rng) for t in sorted(self.graph.tasks())
        }
        return duration, bandwidth

    # -- realization ---------------------------------------------------------------

    def _realize(
        self,
        plan: Schedule,
        done: Dict[str, SimulatedTask],
        proc_free: Dict[int, float],
        duration_factor: Dict[str, float],
        bandwidth_factor: Dict[str, float],
    ) -> Tuple[List[SimulatedTask], Optional[str]]:
        """Execute *plan* until a deviation trips; returns realized tasks.

        The second return value names the deviating task (``None`` if the
        whole plan realized within tolerance).
        """
        order = sorted(plan, key=lambda p: (p.start, p.name))
        realized: List[SimulatedTask] = []
        free = dict(proc_free)
        for placed in order:
            name = placed.name
            if name in done:
                continue  # already realized in an earlier round of this plan
            procs = placed.processors
            machine_ready = max(free.get(p, 0.0) for p in procs)
            comm_total = 0.0
            data_ready = 0.0
            parent_finish = 0.0
            for u in self.graph.predecessors(name):
                src = done.get(u)
                if src is None:
                    src = next((r for r in realized if r.name == u), None)
                if src is None:
                    raise SimulationError(
                        f"plan order violates precedence at {name!r}"
                    )
                xfer = self.model.transfer_time(
                    src.processors, procs, self.graph.data_volume(u, name)
                )
                if xfer > 0:
                    xfer /= bandwidth_factor[name]
                comm_total += xfer
                data_ready = max(data_ready, src.finish + xfer)
                parent_finish = max(parent_finish, src.finish)

            et = self.graph.et(name, len(procs)) * duration_factor[name]
            if self.cluster.overlap:
                exec_start = max(machine_ready, data_ready)
                start = exec_start
            else:
                start = max(machine_ready, parent_finish)
                exec_start = start + comm_total
            finish = exec_start + et
            sim = SimulatedTask(
                name=name, start=start, exec_start=exec_start,
                finish=finish, processors=procs,
            )
            realized.append(sim)
            for p in procs:
                free[p] = finish

            predicted = placed.finish
            deviation = abs(finish - predicted) / max(predicted, 1e-12)
            if deviation > self.deviation_threshold:
                return realized, name
        return realized, None

    # -- subgraph + context ----------------------------------------------------------

    def _remaining_subgraph(
        self, done: Dict[str, SimulatedTask]
    ) -> Tuple[TaskGraph, SchedulingContext]:
        sub = TaskGraph(f"{self.graph.name}-remaining")
        remaining = [t for t in self.graph.tasks() if t not in done]
        for t in remaining:
            task = self.graph.task(t)
            sub.add_task(t, task.profile, **task.attrs)
        context = SchedulingContext()
        for u, v in self.graph.edges():
            if v in done:
                continue
            if u in done:
                src = done[u]
                context.external_inputs.setdefault(v, []).append(
                    ExternalInput(
                        ready_time=src.finish,
                        processors=src.processors,
                        volume=self.graph.data_volume(u, v),
                        label=u,
                    )
                )
            else:
                sub.add_edge(u, v, self.graph.data_volume(u, v))
        for sim in done.values():
            for p in sim.processors:
                context.processor_ready[p] = max(
                    context.processor_ready.get(p, 0.0), sim.finish
                )
        return sub, context

    # -- main loop ---------------------------------------------------------------------

    def run(self, *, compare_static: bool = True) -> OnlineReport:
        """Execute the application with on-line replanning."""
        duration_factor, bandwidth_factor = self._draw_factors()
        done: Dict[str, SimulatedTask] = {}
        proc_free: Dict[int, float] = {p: 0.0 for p in self.cluster.processors}
        replans = 0
        cap = self.max_replans if self.max_replans is not None else (
            2 * self.graph.num_tasks + 8
        )

        static_plan: Optional[Schedule] = None
        prev_alloc: Optional[Dict[str, int]] = None
        while len(done) < self.graph.num_tasks:
            sub, context = self._remaining_subgraph(done)
            scheduler = self._factory(context)
            if (
                self.warm_start
                and prev_alloc is not None
                and getattr(scheduler, "initial_allocation", False) is None
            ):
                # seed the replan with the previous plan's widths for the
                # still-unfinished tasks (adopted only if strictly better)
                scheduler.initial_allocation = {
                    t: prev_alloc[t] for t in sub.tasks() if t in prev_alloc
                }
            plan = scheduler.schedule(sub, self.cluster)
            prev_alloc = plan.allocation()
            if self.metrics is not None:
                self.metrics.observe(
                    "replan_seconds", plan.scheduling_time,
                    round="initial" if static_plan is None else "replan",
                    help="wall-clock latency of each (re)planning round",
                )
                if static_plan is not None:
                    self.metrics.inc(
                        "replans", help="deviation-triggered replanning rounds"
                    )
            if static_plan is None:
                static_plan = plan  # the round-0 plan is the static baseline
            realized, deviator = self._realize(
                plan, done, proc_free, duration_factor, bandwidth_factor
            )
            for sim in realized:
                done[sim.name] = sim
                for p in sim.processors:
                    proc_free[p] = max(proc_free[p], sim.finish)
            if deviator is None or len(done) == self.graph.num_tasks:
                break
            replans += 1
            if replans >= cap:
                # finish out the current plan without further replanning
                saved = self.deviation_threshold
                self.deviation_threshold = float("inf")
                try:
                    rest, _ = self._realize(
                        plan, done, proc_free, duration_factor, bandwidth_factor
                    )
                finally:
                    self.deviation_threshold = saved
                for sim in rest:
                    if sim.name not in done:
                        done[sim.name] = sim
                        for p in sim.processors:
                            proc_free[p] = max(proc_free[p], sim.finish)
                break

        makespan = max(t.finish for t in done.values())
        report = OnlineReport(makespan=makespan, replans=replans, tasks=done)

        if compare_static and static_plan is not None:
            report.static_makespan = self._replay_static(
                static_plan, duration_factor, bandwidth_factor
            )
        self.check_realized(done)
        return report

    def _replay_static(
        self,
        plan: Schedule,
        duration_factor: Dict[str, float],
        bandwidth_factor: Dict[str, float],
    ) -> float:
        saved = self.deviation_threshold
        self.deviation_threshold = float("inf")
        try:
            realized, _ = self._realize(
                plan, {}, {p: 0.0 for p in self.cluster.processors},
                duration_factor, bandwidth_factor,
            )
        finally:
            self.deviation_threshold = saved
        return max(t.finish for t in realized)

    # -- invariants ------------------------------------------------------------------

    def check_realized(self, done: Dict[str, SimulatedTask]) -> None:
        """Raise if the realized execution violates the original graph.

        Delegates to :func:`repro.sim.engine.verify_realized` (the shared
        oracle also used by the online daemon's chart audit).
        """
        verify_realized(self.graph, done)
