"""Schedule-equivalence gates: golden fingerprints and frozen references.

* :mod:`repro.perf.reference` — the naive pre-optimization implementations
  (sort-based ready queue, full-schedule blocker scan, uncached costs)
  kept alive as the equivalence oracle;
* :mod:`repro.perf.scalar_oracles` — the frozen pre-numpy timeline and
  redistribution code the differential battery compares against;
* :mod:`repro.perf.golden` — exact makespan/placement fingerprints of every
  registered scheduler, guarding against schedule drift
  (``python -m repro.perf golden --check``).

Performance is measured by ``perfbench/run.py`` (see ``BENCHMARK.json``).
"""

from repro.perf.golden import (
    GOLDEN_PATH,
    check_golden,
    compute_golden,
    golden_cases,
    schedule_digest,
    write_golden,
)
from repro.perf.reference import (
    ReferenceLocMpsScheduler,
    locbs_schedule_reference,
    scan_blockers,
)

__all__ = [
    "GOLDEN_PATH",
    "check_golden",
    "compute_golden",
    "golden_cases",
    "schedule_digest",
    "write_golden",
    "ReferenceLocMpsScheduler",
    "locbs_schedule_reference",
    "scan_blockers",
]
