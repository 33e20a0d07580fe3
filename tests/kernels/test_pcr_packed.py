"""Packed PCR: multiple small systems per block."""

import numpy as np
import pytest

from repro.gpusim import GTX280, gt200_cost_model
from repro.kernels.api import run_kernel
from repro.kernels.pcr_packed_kernel import run_pcr_packed
from repro.numerics.generators import diagonally_dominant_fluid


def grid_ms(res, num_blocks):
    return gt200_cost_model().grid_report(
        GTX280, num_blocks, res.shared_bytes, res.threads_per_block,
        res.ledger).total_ms


class TestFunctional:
    @pytest.mark.parametrize("n,P", [(16, 2), (64, 4), (64, 8), (128, 2)])
    def test_bit_identical_to_plain_pcr(self, n, P):
        s = diagonally_dominant_fluid(16, n, seed=n + P)
        x_ref, _ = run_kernel("pcr", s)
        x, _ = run_pcr_packed(s, P)
        np.testing.assert_array_equal(x, x_ref)

    def test_p1_equals_plain_layout(self):
        s = diagonally_dominant_fluid(8, 32, seed=0)
        x, res = run_pcr_packed(s, 1)
        x_ref, ref = run_kernel("pcr", s)
        np.testing.assert_array_equal(x, x_ref)
        assert res.shared_bytes == ref.shared_bytes

    def test_conflict_free(self):
        s = diagonally_dominant_fluid(8, 64, seed=1)
        _x, res = run_pcr_packed(s, 4)
        for name, pc in res.ledger.phases.items():
            assert pc.conflict_degree == pytest.approx(1.0), name


class TestPackingWins:
    def test_packing_beats_plain_at_small_sizes(self):
        """Four 64-unknown systems per block out-run the paper's
        one-per-block mapping (fuller warps, fewer blocks)."""
        s = diagonally_dominant_fluid(64, 64, seed=2)
        _x, plain = run_kernel("pcr", s)
        _x, packed = run_pcr_packed(s, 4)
        assert grid_ms(packed, 16) < grid_ms(plain, 64)

    def test_too_much_packing_backfires(self):
        """The occupancy curve has an interior optimum: P=8 carries
        20 KB-ish of shared per block and loses residency."""
        s = diagonally_dominant_fluid(64, 64, seed=3)
        _x, p4 = run_pcr_packed(s, 4)
        _x, p8 = run_pcr_packed(s, 8)
        assert grid_ms(p8, 8) > grid_ms(p4, 16)


class TestValidation:
    def test_indivisible_batch(self):
        s = diagonally_dominant_fluid(10, 32, seed=4)
        with pytest.raises(ValueError, match="divisible"):
            run_pcr_packed(s, 4)

    def test_block_too_wide(self):
        from repro.gpusim import KernelError
        s = diagonally_dominant_fluid(8, 256, seed=5)
        with pytest.raises((KernelError, ValueError)):
            run_pcr_packed(s, 4)  # 1024 threads > 512
