"""Synthetic task-graph generator (TGFF-style layered random DAGs).

The paper generates its synthetic workloads with the external "Task Graphs
For Free" tool; this module provides a statistically equivalent seeded
generator with the same controls:

* task count (the paper varies 10–50);
* average total degree ~4 (in + out), achieved by drawing each non-root
  task's in-degree from a clipped Poisson with mean 2;
* uniprocessor compute times uniform with mean 30;
* per-edge communication costs uniform with mean ``30 * CCR`` (defined at
  the one-processor-per-task allocation), converted to data volumes via the
  network bandwidth;
* Downey speedups with ``A ~ U[1, Amax]`` and fixed ``sigma``.

Edges always point from lower- to higher-index tasks (acyclic by
construction) and prefer recent predecessors, giving the layered, mostly
series-parallel shape TGFF produces.

:func:`wide_dag` and :func:`deep_dag` are two fixed stress shapes (a
fork-join and a dense layered DAG) used by the equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster import FAST_ETHERNET_100MBPS
from repro.exceptions import WorkloadError
from repro.graph import TaskGraph
from repro.speedup import DowneySpeedup, ExecutionProfile
from repro.utils.rng import SeedLike, as_generator

__all__ = ["SyntheticConfig", "deep_dag", "synthetic_dag", "wide_dag"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic generator (paper Section IV-A defaults)."""

    num_tasks: int = 30
    mean_degree: float = 4.0  # average in+out degree
    mean_compute: float = 30.0
    ccr: float = 0.0
    amax: float = 64.0
    sigma: float = 1.0
    bandwidth: float = FAST_ETHERNET_100MBPS
    #: how strongly edges prefer recent predecessors (larger = more layered)
    recency: float = 3.0

    def validate(self) -> None:
        if self.num_tasks < 1:
            raise WorkloadError(f"num_tasks must be >= 1, got {self.num_tasks}")
        if self.mean_degree < 0:
            raise WorkloadError(f"mean_degree must be >= 0, got {self.mean_degree}")
        if self.mean_compute <= 0:
            raise WorkloadError(f"mean_compute must be > 0, got {self.mean_compute}")
        if self.ccr < 0:
            raise WorkloadError(f"ccr must be >= 0, got {self.ccr}")
        if self.amax < 1:
            raise WorkloadError(f"amax must be >= 1, got {self.amax}")
        if self.sigma < 0:
            raise WorkloadError(f"sigma must be >= 0, got {self.sigma}")
        if self.bandwidth <= 0:
            raise WorkloadError(f"bandwidth must be > 0, got {self.bandwidth}")


def synthetic_dag(
    num_tasks: int = 30,
    *,
    ccr: float = 0.0,
    amax: float = 64.0,
    sigma: float = 1.0,
    mean_compute: float = 30.0,
    mean_degree: float = 4.0,
    bandwidth: float = FAST_ETHERNET_100MBPS,
    seed: SeedLike = None,
    name: Optional[str] = None,
) -> TaskGraph:
    """Generate one random task graph with the paper's synthetic parameters.

    ``ccr`` is the communication-to-computation ratio at the pure
    task-parallel allocation: edge communication costs are drawn uniform
    with mean ``mean_compute * ccr`` and converted to bytes at *bandwidth*.
    """
    config = SyntheticConfig(
        num_tasks=num_tasks,
        mean_degree=mean_degree,
        mean_compute=mean_compute,
        ccr=ccr,
        amax=amax,
        sigma=sigma,
        bandwidth=bandwidth,
    )
    return generate(config, seed=seed, name=name)


def generate(
    config: SyntheticConfig, *, seed: SeedLike = None, name: Optional[str] = None
) -> TaskGraph:
    """Generate a graph from an explicit :class:`SyntheticConfig`."""
    config.validate()
    rng = as_generator(seed)
    n = config.num_tasks
    graph = TaskGraph(name or f"synthetic-{n}")

    # Vertices: uniform compute times with the requested mean (support
    # [mean/30, 2*mean - mean/30] keeps times strictly positive), Downey
    # speedups with A ~ U[1, Amax].
    lo = config.mean_compute / 30.0
    hi = 2.0 * config.mean_compute - lo
    for i in range(n):
        et1 = float(rng.uniform(lo, hi))
        A = float(rng.uniform(1.0, config.amax))
        profile = ExecutionProfile(DowneySpeedup(A, config.sigma), et1)
        graph.add_task(f"T{i}", profile, downey_A=A, downey_sigma=config.sigma)

    if n == 1:
        return graph

    # Edges: each task i >= 1 draws in-degree ~ Poisson(mean_degree / 2)
    # clipped to [1, i], with predecessors biased toward recent tasks
    # (geometric-ish weights) to create a layered structure.
    mean_in = max(config.mean_degree / 2.0, 0.0)
    mean_comm = config.mean_compute * config.ccr
    for i in range(1, n):
        want = int(rng.poisson(mean_in)) if mean_in > 0 else 0
        want = min(max(want, 1), i)
        weights = np.exp(-np.arange(i, 0, -1) / config.recency)
        weights /= weights.sum()
        preds = rng.choice(i, size=want, replace=False, p=weights)
        for j in sorted(int(x) for x in preds):
            comm_cost = float(rng.uniform(0.0, 2.0 * mean_comm)) if mean_comm > 0 else 0.0
            graph.add_edge(f"T{j}", f"T{i}", comm_cost * config.bandwidth)
    return graph


def wide_dag(
    num_tasks: int,
    *,
    seed: int = 0,
    ccr_volume: float = 20e6,
    name: str = "",
) -> TaskGraph:
    """A fork-join DAG: source → ``num_tasks - 2`` parallel tasks → sink.

    On a machine far narrower than the middle layer, every placement
    contends for processors: the ready set stays ~as large as the layer
    (stressing the ready queue) and most tasks wait on releases rather
    than data (stressing pseudo-edge blocker detection).
    """
    if num_tasks < 3:
        raise ValueError(f"need num_tasks >= 3, got {num_tasks}")
    rng = as_generator(seed)
    g = TaskGraph(name or f"wide-{num_tasks}")

    def profile() -> ExecutionProfile:
        A = float(rng.uniform(4, 48))
        return ExecutionProfile(DowneySpeedup(A, 1.0), float(rng.uniform(5, 60)))

    g.add_task("src", profile())
    mids = [f"m{i:04d}" for i in range(num_tasks - 2)]
    for m in mids:
        g.add_task(m, profile())
    g.add_task("sink", profile())
    for m in mids:
        g.add_edge("src", m, float(rng.uniform(0.1, 1.0)) * ccr_volume)
        g.add_edge(m, "sink", float(rng.uniform(0.1, 1.0)) * ccr_volume)
    return g


def deep_dag(
    depth: int,
    width: int,
    *,
    seed: int = 0,
    ccr_volume: float = 20e6,
    name: str = "",
) -> TaskGraph:
    """A layered DAG: *depth* layers of *width* tasks, dense layer links.

    Long critical paths drive many look-ahead steps in the outer loop, so
    this shape stresses the per-call setup costs (edge-cost map, bottom
    levels) that the run-scoped cost cache amortizes.
    """
    if depth < 1 or width < 1:
        raise ValueError(f"need depth, width >= 1, got {depth}, {width}")
    rng = as_generator(seed)
    g = TaskGraph(name or f"deep-{depth}x{width}")
    layers: List[List[str]] = []
    for d in range(depth):
        layer = [f"t{d:03d}_{w:02d}" for w in range(width)]
        for t in layer:
            A = float(rng.uniform(4, 48))
            g.add_task(
                t, ExecutionProfile(DowneySpeedup(A, 1.0), float(rng.uniform(5, 60)))
            )
        layers.append(layer)
    for prev, cur in zip(layers, layers[1:]):
        for i, t in enumerate(cur):
            # same-index parent plus one rotating neighbour: connected but
            # not so dense that the layer serializes on communication.
            # Deduped with an insertion-ordered dict, NOT a set: string-set
            # iteration order varies with PYTHONHASHSEED, which made the
            # edge insertion order — and through tie-breaking, the whole
            # benchmark schedule — differ from process to process.
            for u in dict.fromkeys((prev[i], prev[(i + 1) % width])):
                g.add_edge(u, t, float(rng.uniform(0.1, 1.0)) * ccr_volume)
    return g
