"""Automatic performance advisor (the paper's §5.3.6 future-work tool)."""

import pytest

from repro.analysis.advisor import analyze, report
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid


@pytest.fixture(scope="module")
def batch():
    return diagonally_dominant_fluid(2, 512, seed=0)


class TestCrDiagnosis:
    def test_flags_bank_conflicts_first_for_cr(self, batch):
        """The advisor must rediscover the paper's §5.3.1 analysis:
        bank conflicts are CR's top cost."""
        _x, res = run_kernel("cr", batch)
        recs = analyze(res)
        assert recs, "CR should not look optimal"
        factors = [r.factor for r in recs]
        assert "shared-memory bank conflicts" in factors[:2]
        assert any("latency" in f for f in factors[:2])

    def test_step_overhead_flagged(self, batch):
        _x, res = run_kernel("cr", batch)
        recs = analyze(res)
        assert any("synchronization/control" in r.factor for r in recs)

    def test_savings_are_positive_fractions(self, batch):
        _x, res = run_kernel("cr", batch)
        for r in analyze(res):
            assert r.saving_ms > 0
            assert 0 < r.saving_fraction < 1


class TestPcrDiagnosis:
    def test_pcr_nearly_optimal(self, batch):
        """PCR is conflict-free and full-front: the advisor should find
        little to do (paper's own conclusion)."""
        _x, res = run_kernel("pcr", batch)
        recs = analyze(res)
        total_saving = sum(r.saving_fraction for r in recs)
        assert total_saving < 0.15

    def test_hybrid_better_than_cr_per_advisor(self, batch):
        """The hybrid should leave less on the table than CR."""
        _x, cr = run_kernel("cr", batch)
        _x, hy = run_kernel("cr_pcr", batch, intermediate_size=256)
        cr_saving = sum(r.saving_fraction for r in analyze(cr))
        hy_saving = sum(r.saving_fraction for r in analyze(hy))
        assert hy_saving < cr_saving


class TestNaiveKernelDiagnosis:
    def test_flags_coalescing_for_strided_thomas(self):
        s = diagonally_dominant_fluid(128, 128, seed=1)
        _x, res = run_kernel("thomas", s)
        recs = analyze(res)
        assert any("uncoalesced" in r.factor for r in recs)
        top = recs[0]
        assert ("uncoalesced" in top.factor) or ("latency" in top.factor)


class TestReport:
    def test_report_renders(self, batch):
        _x, res = run_kernel("cr", batch)
        text = report(res)
        assert "prioritized optimizations" in text
        assert "ms" in text

    def test_quiet_for_optimal_kernel(self, batch):
        _x, res = run_kernel("pcr", batch)
        text = report(res)
        assert "total modeled time" in text
