"""The experiment registry stays in sync with reality."""

import glob
import importlib
import os

import pytest

from repro.experiments import EXPERIMENTS, by_id, paper_artifacts, summary

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                         "benchmarks")


class TestRegistryConsistency:
    def test_every_registered_bench_exists(self):
        for e in EXPERIMENTS:
            path = os.path.join(BENCH_DIR, e.bench)
            assert os.path.isfile(path), f"{e.id}: missing {e.bench}"

    def test_every_figure_bench_is_registered(self):
        """No orphan figure/table/ablation benches."""
        on_disk = {os.path.basename(p)
                   for p in glob.glob(os.path.join(BENCH_DIR,
                                                   "bench_*.py"))}
        registered = {e.bench for e in EXPERIMENTS}
        # Wall-clock suites measure this library, not the paper.
        exempt = {"bench_cpu_wallclock.py", "bench_extension_solvers.py",
                  "bench_serve_latency.py",
                  "bench_overload.py", "bench_vectorized_engine.py",
                  "bench_layout_autotune.py"}
        assert on_disk - registered - exempt == set()

    def test_every_module_imports(self):
        for e in EXPERIMENTS:
            for mod in e.modules:
                importlib.import_module(mod)

    def test_all_fourteen_paper_artifacts_covered(self):
        """Table 1 plus Figures 6-18: fourteen artifacts, all present."""
        refs = {e.paper_ref for e in paper_artifacts()}
        expected = {"Table 1"} | {f"Figure {i}" for i in range(6, 19)}
        assert refs == expected

    def test_ids_unique(self):
        ids = [e.id for e in EXPERIMENTS]
        assert len(ids) == len(set(ids))

    def test_lookup(self):
        assert by_id("fig9").bench == "bench_fig9_bank_conflicts.py"
        with pytest.raises(KeyError):
            by_id("fig99")

    def test_summary_renders(self):
        text = summary()
        assert "Figure 18" in text
        assert "bench_fig17_switch_point.py" in text
