"""Resource breakdown and the register-substitution probe."""

import numpy as np
import pytest

from repro.analysis.breakdown import (compute_time_as_remainder,
                                      resource_breakdown,
                                      shared_time_by_substitution)
from repro.kernels.api import run_kernel
from repro.numerics.generators import close_values, diagonally_dominant_fluid


@pytest.fixture(scope="module")
def paper_batch():
    """Two blocks of the paper's 512-unknown systems (counters are per
    block, so two suffice)."""
    return diagonally_dominant_fluid(2, 512, seed=0)


class TestSubstitutionProbe:
    @pytest.mark.parametrize("solver", ["cr", "pcr"])
    def test_substitution_equals_direct(self, solver, paper_batch):
        """§5.3's register-substitution estimate equals the direct
        attribution in an additive model -- the soundness property."""
        _x, res = run_kernel(solver, paper_batch)
        direct = resource_breakdown(res).shared_ms
        probe = shared_time_by_substitution(res)
        assert probe == pytest.approx(direct, rel=1e-9)

    def test_remainder_equals_compute(self, paper_batch):
        _x, res = run_kernel("cr", paper_batch)
        rb = resource_breakdown(res)
        assert compute_time_as_remainder(res) == pytest.approx(
            rb.compute_ms, rel=1e-9)


class TestPaperResourceShapes:
    def test_cr_shared_dominates(self, paper_batch):
        """Fig 10: shared memory access dominates CR (64 % published)."""
        _x, res = run_kernel("cr", paper_batch)
        gf, sf, cf = resource_breakdown(res).fractions()
        assert sf > 0.5
        assert sf > cf > gf

    def test_pcr_compute_dominates(self, paper_batch):
        """Fig 12: PCR's split is 20/30/50 global/shared/compute."""
        _x, res = run_kernel("pcr", paper_batch)
        gf, sf, cf = resource_breakdown(res).fractions()
        assert cf > sf
        assert cf == pytest.approx(0.5, abs=0.15)

    def test_shared_bandwidth_ratio_pcr_vs_cr(self, paper_batch):
        """§5.3.2: PCR's effective shared bandwidth is an order of
        magnitude beyond CR's (26x published)."""
        _x, cr_res = run_kernel("cr", paper_batch)
        _x, pcr_res = run_kernel("pcr", paper_batch)
        bw_cr = resource_breakdown(cr_res).shared_GBps
        bw_pcr = resource_breakdown(pcr_res).shared_GBps
        assert bw_pcr / bw_cr > 8

    def test_rd_compute_rate_exceeds_pcr(self):
        """§5.3.3: RD has ~2x PCR's FLOP count at similar compute time
        -> higher computation rate (186.7 vs 101.9 GFLOPS published)."""
        s = close_values(2, 512, seed=1)
        _x, rd_res = run_kernel("rd", s)
        _x, pcr_res = run_kernel("pcr", s)
        r_rd = resource_breakdown(rd_res).compute_GFLOPS
        r_pcr = resource_breakdown(pcr_res).compute_GFLOPS
        assert r_rd > r_pcr

    def test_global_bandwidth_magnitude(self):
        """Coalesced staging should land in the tens of GB/s (48.5
        published for CR).  Needs a full wave of blocks (one per SM)
        for the aggregate-rate arithmetic to reflect a busy device."""
        s = diagonally_dominant_fluid(30, 512, seed=2)
        _x, res = run_kernel("cr", s)
        bw = resource_breakdown(res).global_GBps
        assert 20 <= bw <= 100
