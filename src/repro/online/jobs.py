"""Job records for the online daemon, and per-job task namespacing.

Every submitted job carries its own :class:`~repro.graph.TaskGraph` whose
task names are prefixed ``"<job id>/"`` — the live chart, the placement
index and the cost cache all key by task name, so namespacing is what
lets many instances of the same application template coexist on one
machine (and lets :meth:`CostCache.release_graph` evict exactly one job's
state when it finishes).

The *un*-namespaced template graph is kept alongside: allocation is
decided once per submission on the shared template object, so repeated
templates hit the cost cache's graph memo — and, when the daemon is given
a :class:`~repro.cache.service.CachedScheduleService`, the
content-addressed schedule cache — instead of paying a cold allocation
walk per arrival.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exceptions import ScheduleError
from repro.graph import TaskGraph
from repro.schedule import PlacedTask

__all__ = ["Job", "namespace_graph"]


def namespace_graph(template: TaskGraph, job_id: str) -> TaskGraph:
    """A copy of *template* with every task renamed ``"<job_id>/<task>"``."""
    if "/" in job_id:
        raise ScheduleError(f"job id {job_id!r} must not contain '/'")
    out = TaskGraph(f"{job_id}/{template.name}")
    for t in template.tasks():
        task = template.task(t)
        out.add_task(f"{job_id}/{t}", task.profile, **task.attrs)
    for u, v in template.edges():
        out.add_edge(f"{job_id}/{u}", f"{job_id}/{v}", template.data_volume(u, v))
    return out


@dataclass
class Job:
    """One job moving through the daemon: submitted → placed → finished.

    ``allocation`` maps *namespaced* task names to processor widths. It
    may be preset (rigid SWF jobs arrive with their width) or left
    ``None`` for the daemon's allocator to decide at submit time; either
    way it is recorded on the job so the cold-rebuild differential arm
    replays the identical vector.
    """

    job_id: str
    template: str
    graph: TaskGraph  #: namespaced per-job graph (lives on the chart)
    template_graph: TaskGraph  #: shared un-namespaced graph (allocation key)
    arrival: float
    allocation: Optional[Dict[str, int]] = None
    #: runtime state, filled in by the daemon
    placements: List[PlacedTask] = field(default_factory=list)
    placed_at: Optional[float] = None  #: sim time the splice happened
    start: Optional[float] = None  #: earliest placed start
    finish: Optional[float] = None  #: latest placed finish

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival):
            raise ScheduleError(
                f"job {self.job_id!r} has non-finite arrival {self.arrival}"
            )
        if self.arrival < 0:
            raise ScheduleError(
                f"job {self.job_id!r} has negative arrival {self.arrival}"
            )

    @property
    def width(self) -> int:
        """Widest task width (admission's notion of the job's size)."""
        if self.allocation:
            return max(self.allocation.values())
        return 1

    def record_placements(self, placements: List[PlacedTask]) -> None:
        self.placements = placements
        self.start = min(p.start for p in placements)
        self.finish = max(p.finish for p in placements)
