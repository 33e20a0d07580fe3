"""Roofline placement (the paper's ref [33], §5.3.6 future work)."""

import pytest

from repro.analysis.roofline import (device_roofs, place_kernel,
                                     roofline_table)
from repro.kernels.api import run_kernel
from repro.numerics.generators import close_values, diagonally_dominant_fluid


@pytest.fixture(scope="module")
def points():
    s = diagonally_dominant_fluid(30, 512, seed=0)
    sc = close_values(30, 512, seed=0)
    return {
        "cr": place_kernel("cr", run_kernel("cr", s)[1]),
        "pcr": place_kernel("pcr", run_kernel("pcr", s)[1]),
        "rd": place_kernel("rd", run_kernel("rd", sc)[1]),
    }


class TestRoofs:
    def test_orders_of_magnitude(self):
        roofs = device_roofs()
        assert 100 <= roofs.compute_gflops <= 1500
        assert 200 <= roofs.shared_gbps <= 3000
        assert 20 <= roofs.global_gbps <= 200

    def test_ridge_points_ordered(self):
        roofs = device_roofs()
        assert roofs.global_ridge > roofs.shared_ridge


class TestPlacement:
    def test_cr_is_shared_bound(self, points):
        """Fig 10: shared memory dominates CR."""
        assert points["cr"].bound == "shared"

    def test_pcr_is_compute_bound(self, points):
        """Fig 12: compute is PCR's largest share (50 %)."""
        assert points["pcr"].bound == "compute"

    def test_conflicts_degrade_cr_shared_roof(self, points):
        cr, pcr = points["cr"], points["pcr"]
        assert cr.conflict_degree > 2
        assert cr.effective_shared_roof < pcr.effective_shared_roof / 2

    def test_warp_waste_lowers_cr_compute_roof(self, points):
        assert points["cr"].lane_utilization < 0.95
        assert points["pcr"].lane_utilization > 0.99

    def test_gflops_ladder_matches_paper(self, points):
        """Paper: 15.5 (CR) < 101.9 (PCR) < 186.7 (RD) GFLOPS; the
        ordering and rough ratios must reproduce."""
        g = {k: p.achieved_gflops for k, p in points.items()}
        assert g["cr"] < g["pcr"] < g["rd"]
        assert g["pcr"] / g["cr"] > 4
        assert 1.1 < g["rd"] / g["pcr"] < 2.5

    def test_achieved_below_attainable(self, points):
        """The roofline bound holds; the gap is the paper's point
        (latency + step overheads that a single-bottleneck model
        cannot see)."""
        for p in points.values():
            assert p.achieved_gflops <= p.attainable_gflops() * 1.05

    def test_table_renders(self, points):
        roofs = device_roofs()
        text = roofline_table(list(points.values()), roofs)
        assert "GFLOPS" in text and "cr" in text
