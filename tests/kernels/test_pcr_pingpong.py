"""Double-buffered PCR vs the paper's in-place choice (§4)."""

import numpy as np
import pytest

from repro.gpusim import KernelError, gt200_cost_model
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid


class TestFunctional:
    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_bit_identical_to_inplace(self, n):
        s = diagonally_dominant_fluid(4, n, seed=n)
        x1, _ = run_kernel("pcr", s)
        x2, _ = run_kernel("pcr_pingpong", s)
        np.testing.assert_array_equal(x1, x2)

    def test_still_conflict_free(self):
        s = diagonally_dominant_fluid(2, 128, seed=0)
        _x, res = run_kernel("pcr_pingpong", s)
        for name, pc in res.ledger.phases.items():
            assert pc.conflict_degree == pytest.approx(1.0), name


class TestFootprintCost:
    def test_nearly_double_footprint(self):
        s = diagonally_dominant_fluid(2, 256, seed=1)
        _x, inplace = run_kernel("pcr", s)
        _x, pingpong = run_kernel("pcr_pingpong", s)
        assert pingpong.shared_bytes == pytest.approx(
            inplace.shared_bytes * 9 / 5)

    def test_512_does_not_fit(self):
        """The §4 killer: in-place PCR runs the paper's flagship size;
        the double-buffered version cannot."""
        s = diagonally_dominant_fluid(2, 512, seed=2)
        run_kernel("pcr", s)  # fits
        with pytest.raises(KernelError, match="shared"):
            run_kernel("pcr_pingpong", s)

    def test_occupancy_penalty_at_256(self):
        """Fewer resident blocks -> slower at grid scale despite one
        fewer barrier per step."""
        cm = gt200_cost_model()
        from repro.gpusim import GTX280
        s = diagonally_dominant_fluid(2, 256, seed=3)
        _x, r_in = run_kernel("pcr", s)
        _x, r_pp = run_kernel("pcr_pingpong", s)
        conc_in = GTX280.blocks_per_sm(r_in.shared_bytes, 256)
        conc_pp = GTX280.blocks_per_sm(r_pp.shared_bytes, 256)
        assert conc_pp < conc_in

        def grid_ms(res):
            return cm.grid_report(GTX280, 256, res.shared_bytes,
                                  res.threads_per_block, res.ledger).total_ms

        assert grid_ms(r_pp) > grid_ms(r_in)

    def test_one_fewer_sync_per_step(self):
        s = diagonally_dominant_fluid(2, 64, seed=4)
        _x, r_in = run_kernel("pcr", s)
        _x, r_pp = run_kernel("pcr_pingpong", s)
        assert (r_pp.ledger.phases["forward_reduction"].syncs
                < r_in.ledger.phases["forward_reduction"].syncs)
