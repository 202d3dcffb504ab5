"""Shared schema metadata for the ``BENCH_*.json`` bench records.

Every emitter stamps both the record-specific ``schema`` string (e.g.
``repro.perf.hotpath/v1``) and the common integer ``schema_version``, so
downstream consumers — the obs dashboard, CI diffing, a future
``BENCH_online.json`` — can parse the family of files uniformly without
knowing each record type's string.
"""

from __future__ import annotations

__all__ = ["BENCH_SCHEMA_VERSION"]

#: bump when the common envelope (not a record-specific field) changes.
#: v2: hotpath records gained the per-suite ``prune`` section (probe-ladder
#: pruning counters and rate) and the optional top-level ``profile`` list
#: (cProfile top-20 cumulative entries, present only under ``--profile``).
#: v3: the ``repro.perf.online/v1`` record joined the family
#: (``BENCH_online.json``: per-suite incremental/cold latency stats,
#: ``median_speedup``, differential ``identical`` flag, per-arm ``probes``
#: counts, and a ``latency_caveat`` string on single-core runs).
#: v4: the hotpath ``prune`` section shrank to ``probes_considered``.
BENCH_SCHEMA_VERSION = 4
