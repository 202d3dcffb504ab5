"""Public API surface: exports resolve and the facade helpers work."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_synthetic_dag_facade(self):
        g = repro.synthetic_dag(8, seed=1)
        assert g.num_tasks == 8

    @pytest.mark.parametrize(
        "module",
        [
            "repro.graph",
            "repro.speedup",
            "repro.cluster",
            "repro.redistribution",
            "repro.schedule",
            "repro.schedulers",
            "repro.sim",
            "repro.workloads",
            "repro.experiments",
            "repro.cache",
            "repro.online",
            "repro.perf",
            "repro.analysis",
            "repro.utils",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_scheduler_registry_instantiates_everything(self):
        from repro.schedulers import SCHEDULERS, get_scheduler

        for name in SCHEDULERS:
            scheduler = get_scheduler(name)
            assert hasattr(scheduler, "run")
            assert hasattr(scheduler, "schedule")

    def test_paper_schemes_subset_of_registry(self):
        from repro.schedulers import SCHEDULERS
        from repro.schedulers.registry import PAPER_SCHEMES

        assert set(PAPER_SCHEMES) <= set(SCHEDULERS)
        assert PAPER_SCHEMES[0] == "locmps"
