"""Device-sensitivity predictions (Fermi-like what-if)."""

import pytest

from repro.analysis.device_study import (FERMI_LIKE, compare_devices,
                                         occupancy_shift)
from repro.gpusim import GTX280, KernelError
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid


@pytest.fixture(scope="module")
def batch():
    return diagonally_dominant_fluid(2, 512, seed=0)


class TestOccupancy:
    def test_fermi_hosts_four_cr_blocks_at_512(self):
        shift = occupancy_shift(512)
        assert shift["GTX 280"] == 1
        assert shift["Fermi-like"] == 4

    def test_cr_rd_m256_feasible_on_fermi(self, batch):
        """The §5.3.5 shared-memory limit is a device property: 48 KiB
        lifts it."""
        with pytest.raises(KernelError):
            run_kernel("cr_rd", batch, intermediate_size=256, device=GTX280)
        _x, res = run_kernel("cr_rd", batch, intermediate_size=256,
                            device=FERMI_LIKE)
        assert res.blocks_per_sm >= 1


class TestConflictStructure:
    def test_32_banks_change_cr_conflicts(self, batch):
        """Stride-16 CR steps conflict 16-way on 16 banks but only
        half as badly relative to the wider conflict group on 32."""
        _x, gt200 = run_kernel("cr", batch, device=GTX280)
        _x, fermi = run_kernel("cr", batch, device=FERMI_LIKE)
        d_gt = gt200.ledger.phases["forward_reduction"].conflict_degree
        d_fm = fermi.ledger.phases["forward_reduction"].conflict_degree
        assert d_fm != d_gt  # the trace genuinely re-measures

    def test_functional_results_device_independent(self, batch):
        import numpy as np
        x1, _ = run_kernel("cr", batch, device=GTX280)
        x2, _ = run_kernel("cr", batch, device=FERMI_LIKE)
        np.testing.assert_array_equal(x1, x2)


class TestComparison:
    def test_cr_gains_most_from_occupancy(self, batch):
        """CR's exposed latency is hidden by Fermi's 4 resident blocks;
        PCR has nothing to hide, so CR must benefit more."""
        comps = {c.solver: c for c in compare_devices(
            batch, num_systems=512,
            intermediate_sizes={"cr_pcr": 256})}
        assert comps["cr"].speedup > comps["pcr"].speedup

    def test_rows_cover_requested_solvers(self, batch):
        comps = compare_devices(batch, solvers=("cr", "pcr"),
                                num_systems=64)
        assert [c.solver for c in comps] == ["cr", "pcr"]
        for c in comps:
            assert c.baseline_ms > 0 and c.variant_ms > 0
