"""Hybrid kernels: functional equivalence and structural properties."""

import warnings

import numpy as np
import pytest

from repro.gpusim import KernelError
from repro.kernels.api import run_kernel
from repro.numerics.generators import close_values, diagonally_dominant_fluid
from repro.solvers.hybrid import cr_pcr, cr_rd
from repro.solvers.thomas import thomas_batched

from .conftest import traced_kernel


class TestCrPcr:
    @pytest.mark.parametrize("n,m", [(16, 4), (64, 8), (64, 32), (128, 64)])
    def test_bit_identical_to_numpy(self, n, m):
        s = diagonally_dominant_fluid(4, n, seed=n + m)
        x, _res = traced_kernel("cr_pcr", s, intermediate_size=m)
        np.testing.assert_array_equal(x, cr_pcr(s, intermediate_size=m))

    def test_default_intermediate(self):
        s = diagonally_dominant_fluid(2, 64, seed=0)
        x, res = traced_kernel("cr_pcr", s)
        assert s.astype(np.float64).residual(x.astype(np.float64)).max() < 1e-3

    def test_phase_sequence(self):
        s = diagonally_dominant_fluid(2, 64, seed=1)
        _x, res = run_kernel("cr_pcr", s, intermediate_size=16)
        assert list(res.ledger.phases) == [
            "global_load", "cr_forward_reduction", "copy_intermediate",
            "inner_forward_reduction", "inner_solve_two",
            "cr_backward_substitution", "global_store"]

    def test_step_split(self):
        """n=64, m=16: 2 CR fwd + 1 copy + 3 PCR fwd + 1 solve +
        2 CR bwd steps."""
        s = diagonally_dominant_fluid(2, 64, seed=2)
        _x, res = run_kernel("cr_pcr", s, intermediate_size=16)
        L = res.ledger
        assert L.phases["cr_forward_reduction"].steps == 2
        assert L.phases["inner_forward_reduction"].steps == 3
        assert L.phases["cr_backward_substitution"].steps == 2

    def test_inner_solver_conflict_free(self):
        s = diagonally_dominant_fluid(2, 64, seed=3)
        _x, res = run_kernel("cr_pcr", s, intermediate_size=16)
        assert res.ledger.phases["inner_forward_reduction"].conflict_degree \
            == pytest.approx(1.0)

    def test_shared_footprint(self):
        s = diagonally_dominant_fluid(2, 64, seed=4)
        _x, res = run_kernel("cr_pcr", s, intermediate_size=16)
        assert res.shared_bytes == (5 * 64 + 4 * 16) * 4


class TestCrRd:
    @pytest.mark.parametrize("n,m", [(16, 4), (64, 16), (64, 64)])
    def test_bit_identical_to_numpy(self, n, m):
        s = close_values(4, n, seed=n + m)
        x, _res = traced_kernel("cr_rd", s, intermediate_size=m)
        np.testing.assert_array_equal(x, cr_rd(s, intermediate_size=m))

    def test_phase_sequence(self):
        s = close_values(2, 64, seed=5)
        _x, res = run_kernel("cr_rd", s, intermediate_size=16)
        assert list(res.ledger.phases) == [
            "global_load", "cr_forward_reduction", "rd_copy_setup",
            "rd_scan", "rd_solution_evaluation",
            "cr_backward_substitution", "global_store"]

    def test_m256_at_n512_exceeds_shared_memory(self):
        """§5.3.5: the intermediate size "is 128 instead of 256 ...
        due to the limit of shared memory size"."""
        s = close_values(2, 512, seed=6)
        with pytest.raises(KernelError, match="shared memory"):
            run_kernel("cr_rd", s, intermediate_size=256)

    def test_m128_at_n512_fits(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = close_values(2, 512, seed=7)
            _x, res = run_kernel("cr_rd", s, intermediate_size=128)
        assert res.blocks_per_sm == 1

    def test_cr_pcr_m256_at_n512_fits(self):
        """...while CR+PCR can afford m = 256 (§5.3.4)."""
        s = diagonally_dominant_fluid(2, 512, seed=8)
        x, res = traced_kernel("cr_pcr", s, intermediate_size=256)
        assert res.blocks_per_sm == 1
        assert np.isfinite(x).all()


class TestValidation:
    def test_bad_intermediate_size(self):
        s = diagonally_dominant_fluid(1, 16, seed=9)
        with pytest.raises(ValueError):
            run_kernel("cr_pcr", s, intermediate_size=12)
