"""Global-memory-only CR and the naive per-thread Thomas kernel."""

import numpy as np
import pytest

from repro.gpusim import gt200_cost_model
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid
from repro.solvers.cr import cyclic_reduction
from repro.solvers.thomas import thomas_batched

from .conftest import traced_kernel


class TestGlobalOnlyCR:
    @pytest.mark.parametrize("n", [4, 64, 256])
    def test_bit_identical_to_shared_cr(self, n):
        s = diagonally_dominant_fluid(4, n, seed=n)
        x, _res = traced_kernel("cr_global", s)
        np.testing.assert_array_equal(x, cyclic_reduction(s))

    def test_no_shared_memory(self):
        s = diagonally_dominant_fluid(2, 64, seed=0)
        _x, res = run_kernel("cr_global", s)
        assert res.shared_bytes == 0

    def test_handles_systems_too_large_for_shared(self):
        """The whole reason the fallback exists (§4): n = 1024 will not
        fit five shared arrays, the global path just runs."""
        from repro.gpusim import KernelError
        s = diagonally_dominant_fluid(2, 1024, seed=1)
        with pytest.raises(KernelError):
            run_kernel("cr", s)
        x, _res = traced_kernel("cr_global", s)
        np.testing.assert_allclose(
            x, thomas_batched(s.astype(np.float64)), rtol=1e-2, atol=1e-3)

    def test_roughly_3x_penalty_at_512(self):
        """§4: "roughly 3x performance degradation"."""
        cm = gt200_cost_model()
        s = diagonally_dominant_fluid(2, 512, seed=2)
        _x, shared = run_kernel("cr", s)
        _x, glob = run_kernel("cr_global", s)
        ratio = cm.report(glob).total_ms / cm.report(shared).total_ms
        assert 2.0 <= ratio <= 4.5

    def test_strided_transactions_explode(self):
        s = diagonally_dominant_fluid(2, 256, seed=3)
        _x, shared = run_kernel("cr", s)
        _x, glob = run_kernel("cr_global", s)
        assert (glob.ledger.total().global_transactions
                > 5 * shared.ledger.total().global_transactions)


class TestThomasPerThread:
    def test_strided_layout_correct(self):
        s = diagonally_dominant_fluid(32, 32, seed=0)
        x, _res = traced_kernel("thomas", s)
        np.testing.assert_allclose(x, thomas_batched(s), rtol=1e-4,
                                   atol=1e-5)

    def test_interleaved_layout_correct(self):
        s = diagonally_dominant_fluid(32, 32, seed=1)
        x, _res = traced_kernel("thomas", s, layout="interleaved")
        np.testing.assert_allclose(x, thomas_batched(s), rtol=1e-4,
                                   atol=1e-5)

    def test_interleaving_fixes_coalescing(self):
        s = diagonally_dominant_fluid(64, 64, seed=2)
        _x, strided = run_kernel("thomas", s)
        _x, inter = run_kernel("thomas", s, layout="interleaved")
        t_s = strided.ledger.total().global_transactions
        t_i = inter.ledger.total().global_transactions
        assert t_s > 10 * t_i

    def test_loses_to_fine_grained_mapping(self):
        """The paper's design point: equations-to-threads beats
        systems-to-threads even with perfect coalescing (step count)."""
        cm = gt200_cost_model()
        s = diagonally_dominant_fluid(128, 128, seed=3)
        _x, naive = run_kernel("thomas", s, layout="interleaved")
        _x, cr = run_kernel("cr", s)
        assert cm.report(cr).total_ms < cm.report(naive).total_ms
