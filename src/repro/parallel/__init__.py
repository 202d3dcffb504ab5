"""Parallel scheduling backend: a warm worker pool for sweeps.

The paper's first stated future-work item is parallelizing the
scheduling step itself. :class:`SchedulerPool` is a persistent process
pool that ships shared context (graphs, clusters, scheduler
configuration) to each worker once via the pool initializer and then
streams small work items at it, with chunked dispatch, completion-order
streaming, and per-worker trace spooling.
``repro.experiments.run_comparison(workers=N)`` runs its (graph, P)
sweep cells on one: independent graphs are real parallelism.
"""

from repro.parallel.pool import SchedulerPool, WorkerEnv, default_chunksize

__all__ = [
    "SchedulerPool",
    "WorkerEnv",
    "default_chunksize",
]
