"""Workload generators: synthetic DAG suites and the two applications.

* :func:`synthetic_dag` / :func:`synthetic_suite` — the paper's synthetic
  experiments (Section IV-A): random layered DAGs of 10–50 tasks with mean
  degree 4, uniform compute times of mean 30, Downey speedups, and a chosen
  communication-to-computation ratio (CCR).
* :func:`wide_dag` / :func:`deep_dag` — fork-join and layered stress
  shapes (huge ready sets; long critical paths) for the equivalence tests.
* :func:`ccsd_t1_graph` — the CCSD T1 tensor-contraction DAG (Section IV-B,
  Tensor Contraction Engine application).
* :func:`strassen_graph` — one level of Strassen matrix multiplication.
"""

from repro.workloads.synthetic import (
    SyntheticConfig,
    deep_dag,
    synthetic_dag,
    wide_dag,
)
from repro.workloads.suites import synthetic_suite, paper_suite
from repro.workloads.ccr import measured_ccr, scale_to_ccr
from repro.workloads.tce import ccsd_full_graph, ccsd_t1_graph
from repro.workloads.strassen import strassen_graph
from repro.workloads.fft import fft_graph
from repro.workloads.lu import lu_graph
from repro.workloads.montage import montage_graph

__all__ = [
    "synthetic_dag",
    "SyntheticConfig",
    "wide_dag",
    "deep_dag",
    "synthetic_suite",
    "paper_suite",
    "measured_ccr",
    "scale_to_ccr",
    "ccsd_t1_graph",
    "ccsd_full_graph",
    "strassen_graph",
    "fft_graph",
    "lu_graph",
    "montage_graph",
]
