"""Tests of the benchmark itself: smoke runs, tracing hygiene, the gate.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, run, trace, workloads
from repro.schedule import PlacedTask, Schedule

ROOT = Path(__file__).resolve().parents[2]

#: workload -> parameter overrides that make one pass take well under a second
TINY = {
    "locmps-wide": {"processors": 8, "fork_join_tasks": 6},
    "locmps-apps": {"processors": 4, "strassen_n": 64},
    "online-stream": {"processors": 8, "jobs": 40},
    "cache-requests": {"processors": 4, "pool": 4, "requests": 40, "memory_capacity": 2},
}


@pytest.fixture
def tiny(monkeypatch):
    for name, overrides in TINY.items():
        monkeypatch.setitem(inputs.PARAMS, name, {**inputs.PARAMS[name], **overrides})


def one_pass(name: str, seed: int, tmp_path: Path, rec: trace.SpanRecorder | None = None):
    setup, run_pass = workloads.WORKLOADS[name]
    state = setup(seed, tmp_path)
    if rec is None:
        result = run_pass(state)
    else:
        with trace.traced(rec):
            result = run_pass(state)
    return workloads.finish(result)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_pass_of_each_workload_is_correct(name, tiny, tmp_path):
    result = one_pass(name, 3, tmp_path)
    assert result.attempted > 0
    assert result.failed == 0, result.errors
    assert result.digest
    assert result.facts["makespan_ratio"] >= 1.0
    assert result.facts["schedule_s"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_pass_has_the_untraced_digest(name, tiny, tmp_path):
    plain = one_pass(name, 5, tmp_path / "plain")
    rec = trace.SpanRecorder()
    traced = one_pass(name, 5, tmp_path / "traced", rec)
    assert traced.digest == plain.digest
    assert len(rec) > 0
    layers = trace.layer_metrics(rec, traced.facts)
    if name.startswith("locmps"):
        assert layers["locbs.placements"] > 0
        assert layers["locmps.locbs_calls"] == traced.facts["events"]


def test_seed_renames_the_tasks_but_keeps_the_work(tiny):
    a, b = inputs.cache_requests(7), inputs.cache_requests(7)
    assert [g.tasks() for g in a] == [g.tasks() for g in b]
    c = inputs.cache_requests(8)
    assert a[0].tasks() != c[0].tasks()
    for x, y in zip(a, c):
        assert [x.sequential_time(t) for t in x.tasks()] == [
            y.sequential_time(t) for t in y.tasks()
        ]
        assert len(x.edges()) == len(y.edges())


def _owners():
    out = []
    for module, path, _name, _hook in trace.TARGETS:
        owner, attr = trace._owner(module, path)
        out.append((owner, attr, attr in vars(owner), vars(owner).get(attr)))
    return out


def test_wrappers_restore_every_attribute_even_when_the_run_raises():
    before = _owners()
    rec = trace.SpanRecorder()
    with pytest.raises(RuntimeError):
        with trace.traced(rec):
            from repro.schedulers import locmps

            assert locmps.locbs_schedule.__wrapped__ is not None
            raise RuntimeError("boom")
    after = _owners()
    assert len(before) == len(trace.TARGETS)
    for (owner, attr, own, original), (_o, _a, own_after, now) in zip(before, after):
        assert own_after == own and now is original, f"{owner}.{attr} not restored"


def test_self_time_subtracts_children():
    rec = trace.SpanRecorder()
    outer = rec.open(rec.name_id("outer"))
    inner = rec.open(rec.name_id("inner"))
    rec.close(inner)
    rec.close(outer)
    rec.start[0], rec.end[0] = 0.0, 3.0
    rec.start[1], rec.end[1] = 1.0, 2.0
    summary = rec.summary()
    assert summary["outer"] == {"calls": 1.0, "total_s": 3.0, "self_s": 2.0}
    assert summary["inner"]["self_s"] == 1.0


def test_gate_fails_a_corrupted_schedule(tiny, tmp_path):
    setup, run_pass = workloads.WORKLOADS["locmps-wide"]
    result = run_pass(setup(3, tmp_path))
    label, graph, cluster, schedule = result.checks[0]
    corrupted = Schedule(cluster)
    for p in schedule:
        if graph.predecessors(p.name):
            # start before the inputs exist: a precedence violation
            p = PlacedTask(p.name, 0.0, 0.0, p.finish - p.start, p.processors)
        corrupted.place(p)
    result.checks[0] = (label, graph, cluster, corrupted)
    workloads.finish(result)
    assert result.failed == 1
    assert "ValidationError" in result.errors[0]


def test_gate_fails_a_digest_that_changes_between_passes():
    gate = run.Gate()
    record = {"pass": {"attempted": 2, "failed": 0, "errors": [], "digest": "a"}}
    gate.add_pass(record, None)
    gate.add_pass({"pass": dict(record["pass"], digest="b")}, "a")
    assert (gate.attempted, gate.failed) == (4, 2)


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "locmps-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reported_metrics_match_benchmark_json():
    record = {"pass": {"facts": {}, "wall_s": 1.0, "samples": {}}, "rss_mb": 1.0}
    end_to_end = {"setup_s", *run.pass_metrics(record)}
    assert end_to_end == set(run.declared_units("end_to_end"))
    per_layer = set(trace.layer_metrics(trace.SpanRecorder(), {})) | {
        "trace.untraced_s", "trace.traced_s", "trace.overhead_ratio", "trace.spans"}
    assert per_layer == set(run.declared_units("per_layer"))
