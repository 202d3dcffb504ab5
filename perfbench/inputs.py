"""Seeded benchmark inputs, built from the program's public constructors.

Every generator takes a ``numpy.random.Generator`` (or a seed) and returns
the same inputs for the same seed. Only public constructors are used —
``TaskGraph``, ``ExecutionProfile`` with ``DowneySpeedup``/``AmdahlSpeedup``,
``Cluster``, ``Job`` + ``namespace_graph`` and the application DAGs of
``repro.workloads`` — so reorganising the program's own benchmark helpers
cannot change what this benchmark measures.

Every workload is a fixed instance: its graphs, job stream and request
sequence come from generator seeds recorded in :data:`PARAMS`. The run's
``--seed`` renames every task (``namespace_graph`` with an ``s<seed>``
prefix, which keeps the tasks' relative order), so different seeds feed
the program different names but the same amount of work. Drawing the
inputs themselves from ``--seed`` would swamp every effect a later change
could have: over eight random 16-task fork-joins on P=64 the LoC-MPS
look-ahead asked for 166 to 3687 LoCBS runs; over six request orders of
the cache workload its misses asked for 1725 to 3113; and a random
renaming that reorders tasks changes the search of graphs with tied
tasks, such as Strassen.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.cluster import MYRINET_2GBPS, Cluster
from repro.graph import TaskGraph
from repro.online import Job, namespace_graph
from repro.speedup import AmdahlSpeedup, DowneySpeedup, ExecutionProfile
from repro.workloads import ccsd_t1_graph, strassen_graph

#: generator parameters of every workload (also listed in README.md)
PARAMS: Dict[str, Dict[str, object]] = {
    "locmps-wide": {
        "processors": 64,
        "fork_join_tasks": 16,
        "instance_seed": 301,
        "downey_A": (4.0, 48.0),
        "seq_time_s": (5.0, 60.0),
        "edge_bytes": (2e6, 20e6),
    },
    "locmps-apps": {
        "processors": 32,
        "ccsd_t1": {"o": 4, "v": 10},
        "strassen_n": 256,
    },
    "online-stream": {
        "processors": 32,
        "template_seed": 7,
        "stream_seed": 5,
        "templates": 6,
        "jobs": 1500,
        "zipf_s": 1.2,
        # 0.95 of P=32 at the widths LoC-MPS gives the templates
        "arrivals_per_s": 0.058,
        "max_backlog_s": 300.0,
    },
    "cache-requests": {
        "processors": 16,
        "pool_seed": 11,
        "stream_seed": 12,
        "pool": 16,
        "variants_per_member": 1,
        "variant_share": 0.2,
        "requests": 1200,
        "zipf_s": 1.1,
        "memory_capacity": 12,
    },
}


def machine(workload: str) -> Cluster:
    """The simulated machine of *workload* (Myrinet 2 Gb/s links)."""
    procs = int(PARAMS[workload]["processors"])
    return Cluster(
        num_processors=procs, bandwidth=MYRINET_2GBPS, name=f"myrinet-{procs}"
    )


def fork_join(num_tasks: int, rng: np.random.Generator) -> TaskGraph:
    """Source -> ``num_tasks - 2`` parallel Downey tasks -> sink."""
    p = PARAMS["locmps-wide"]
    g = TaskGraph(f"fork-join-{num_tasks}")

    def profile() -> ExecutionProfile:
        a = float(rng.uniform(*p["downey_A"]))
        return ExecutionProfile(DowneySpeedup(a, 1.0), float(rng.uniform(*p["seq_time_s"])))

    mids = [f"m{i:03d}" for i in range(num_tasks - 2)]
    g.add_task("src", profile())
    for m in mids:
        g.add_task(m, profile())
    g.add_task("sink", profile())
    for m in mids:
        g.add_edge("src", m, float(rng.uniform(*p["edge_bytes"])))
        g.add_edge(m, "sink", float(rng.uniform(*p["edge_bytes"])))
    return g


def wide_graphs(seed: int) -> List[TaskGraph]:
    """``locmps-wide``: the fork-join instance, tasks renamed by *seed*."""
    p = PARAMS["locmps-wide"]
    base = fork_join(int(p["fork_join_tasks"]), np.random.default_rng(int(p["instance_seed"])))
    return [namespace_graph(base, f"s{seed}")]


def app_graphs(seed: int) -> List[TaskGraph]:
    """``locmps-apps``: the paper's CCSD T1 and Strassen DAGs, renamed by *seed*."""
    p = PARAMS["locmps-apps"]
    return [
        namespace_graph(ccsd_t1_graph(**p["ccsd_t1"]), f"s{seed}"),
        namespace_graph(strassen_graph(int(p["strassen_n"])), f"s{seed}"),
    ]


# -- online stream -----------------------------------------------------------


def _amdahl(rng: np.random.Generator) -> ExecutionProfile:
    return ExecutionProfile(
        AmdahlSpeedup(float(rng.uniform(0.02, 0.3))), float(rng.uniform(10.0, 50.0))
    )


def _volume(rng: np.random.Generator) -> float:
    return float(rng.uniform(1e6, 8e6))


def _template(shape: str, rng: np.random.Generator) -> TaskGraph:
    g = TaskGraph(shape)
    if shape == "chain":
        for i in range(4):
            g.add_task(f"s{i}", _amdahl(rng))
            if i:
                g.add_edge(f"s{i - 1}", f"s{i}", _volume(rng))
    elif shape == "forkjoin":
        g.add_task("split", _amdahl(rng))
        g.add_task("join", _amdahl(rng))
        for i in range(3):
            g.add_task(f"b{i}", _amdahl(rng))
            g.add_edge("split", f"b{i}", _volume(rng))
            g.add_edge(f"b{i}", "join", _volume(rng))
    elif shape == "diamond":
        for t in "abcd":
            g.add_task(t, _amdahl(rng))
        for u, v in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
            g.add_edge(u, v, _volume(rng))
    elif shape == "scatter":
        g.add_task("root", _amdahl(rng))
        for i in range(5):
            g.add_task(f"w{i}", _amdahl(rng))
            g.add_edge("root", f"w{i}", _volume(rng))
    elif shape == "layered":
        for layer in range(2):
            for i in range(3):
                g.add_task(f"l{layer}{i}", _amdahl(rng))
        for i in range(3):
            for j in (i, (i + 1) % 3):
                g.add_edge(f"l0{i}", f"l1{j}", _volume(rng))
    elif shape == "merge":
        for side in "xy":
            g.add_task(f"{side}0", _amdahl(rng))
            g.add_task(f"{side}1", _amdahl(rng))
            g.add_edge(f"{side}0", f"{side}1", _volume(rng))
        g.add_task("out", _amdahl(rng))
        g.add_edge("x1", "out", _volume(rng))
        g.add_edge("y1", "out", _volume(rng))
    else:
        raise ValueError(f"unknown template shape {shape!r}")
    return g


_SHAPES = ("chain", "forkjoin", "diamond", "scatter", "layered", "merge")


def online_templates() -> List[TaskGraph]:
    """The mixed-parallel job templates, most popular first."""
    rng = np.random.default_rng(int(PARAMS["online-stream"]["template_seed"]))
    count = int(PARAMS["online-stream"]["templates"])
    shapes = [_SHAPES[int(i)] for i in rng.permutation(len(_SHAPES))[:count]]
    return [_template(shape, rng) for shape in shapes]


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf popularity of ranks ``1..n``."""
    w = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return w / w.sum()


def job_stream(templates: Sequence[TaskGraph], seed: int) -> List[Job]:
    """Poisson arrivals of Zipf-popular templates, near saturation of P=32."""
    p = PARAMS["online-stream"]
    rng = np.random.default_rng(int(p["stream_seed"]))
    weights = zipf_weights(len(templates), float(p["zipf_s"]))
    rate = float(p["arrivals_per_s"])
    n_jobs = int(p["jobs"])
    gaps = rng.exponential(1.0 / rate, size=n_jobs)
    picks = rng.choice(len(templates), size=n_jobs, p=weights)
    jobs: List[Job] = []
    now = 0.0
    for i in range(n_jobs):
        now += float(gaps[i])
        template = templates[int(picks[i])]
        job_id = f"s{seed}-j{i:05d}-{template.name}"
        jobs.append(
            Job(
                job_id=job_id,
                template=template.name,
                graph=namespace_graph(template, job_id),
                template_graph=template,
                arrival=now,
            )
        )
    return jobs


# -- cache requests ----------------------------------------------------------


def layered_dag(name: str, rng: np.random.Generator) -> TaskGraph:
    """A small random layered DAG of Downey tasks (2-3 layers of 2-3)."""
    g = TaskGraph(name)
    layers: List[List[str]] = []
    for depth in range(int(rng.integers(2, 4))):
        layer = [f"n{depth}{i}" for i in range(int(rng.integers(2, 4)))]
        for t in layer:
            g.add_task(
                t,
                ExecutionProfile(
                    DowneySpeedup(float(rng.uniform(2.0, 24.0)), 1.0),
                    float(rng.uniform(5.0, 40.0)),
                ),
            )
        if layers:
            prev = layers[-1]
            for t in layer:
                k = int(rng.integers(1, min(2, len(prev)) + 1))
                for u in sorted(rng.choice(len(prev), size=k, replace=False)):
                    g.add_edge(prev[int(u)], t, float(rng.uniform(1e6, 1.6e7)))
        layers.append(layer)
    return g


def perturbed(graph: TaskGraph, rng: np.random.Generator, name: str) -> TaskGraph:
    """A copy of *graph* with one or two tasks' sequential time rescaled."""
    tasks = graph.tasks()
    changed = set(
        tasks[int(i)]
        for i in rng.choice(len(tasks), size=int(rng.integers(1, 3)), replace=False)
    )
    out = TaskGraph(name)
    for t in tasks:
        profile = graph.task(t).profile
        if t in changed:
            profile = ExecutionProfile(
                profile.model, profile.sequential_time * float(rng.uniform(1.2, 1.6))
            )
        out.add_task(t, profile)
    for u, v in graph.edges():
        out.add_edge(u, v, graph.data_volume(u, v))
    return out


def cache_requests(seed: int) -> List[TaskGraph]:
    """A Zipf-skewed request sequence over a pool of layered DAGs.

    A ``variant_share`` of requests asks for a few-task perturbation of
    the drawn pool member instead of the member itself, so the service
    sees exact repeats (hits) and near-duplicates (warm-start candidates).
    """
    p = PARAMS["cache-requests"]
    rng = np.random.default_rng(int(p["pool_seed"]))
    pool = [layered_dag(f"dag{i:02d}", rng) for i in range(int(p["pool"]))]
    per = int(p["variants_per_member"])
    variants: List[List[TaskGraph]] = [
        [perturbed(g, rng, f"{g.name}v{j}") for j in range(per)] for g in pool
    ]
    pool = [namespace_graph(g, f"s{seed}") for g in pool]
    variants = [[namespace_graph(g, f"s{seed}") for g in vs] for vs in variants]
    rng = np.random.default_rng(int(p["stream_seed"]))
    weights = zipf_weights(len(pool), float(p["zipf_s"]))
    n = int(p["requests"])
    picks = rng.choice(len(pool), size=n, p=weights)
    use_variant = rng.random(n) < float(p["variant_share"])
    which = rng.integers(0, per, size=n)
    return [
        variants[int(k)][int(j)] if v else pool[int(k)]
        for k, v, j in zip(picks, use_variant, which)
    ]
