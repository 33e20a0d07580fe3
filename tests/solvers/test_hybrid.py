"""Hybrid CR+PCR / CR+RD: endpoint equivalences and correctness."""

import numpy as np
import pytest

from repro.numerics.generators import close_values, diagonally_dominant_fluid
from repro.solvers.cr import cyclic_reduction
from repro.solvers.hybrid import (cr_pcr, cr_rd, default_intermediate_size,
                                  hybrid_solve, operation_count, step_count)
from repro.solvers.pcr import parallel_cyclic_reduction
from repro.solvers.rd import recursive_doubling
from repro.solvers.thomas import thomas_batched


class TestCorrectness:
    @pytest.mark.parametrize("n,m", [(8, 2), (8, 4), (8, 8),
                                     (64, 2), (64, 8), (64, 32), (64, 64)])
    def test_cr_pcr_matches_thomas(self, n, m):
        s = diagonally_dominant_fluid(4, n, seed=n + m, dtype=np.float64)
        x = cr_pcr(s, intermediate_size=m)
        np.testing.assert_allclose(x, thomas_batched(s), rtol=1e-8,
                                   atol=1e-10)

    @pytest.mark.parametrize("n,m", [(64, 4), (64, 16), (64, 64)])
    def test_cr_rd_matches_thomas_close_values(self, n, m):
        s = close_values(4, n, seed=n + m, dtype=np.float64)
        x = cr_rd(s, intermediate_size=m)
        np.testing.assert_allclose(x, thomas_batched(s), rtol=1e-5,
                                   atol=1e-7)

    def test_cr_rd_overflows_on_dominant_like_rd(self):
        """Fig 18 shows *both* RD and CR+RD overflow on diagonally
        dominant systems: CR forward reduction amplifies the dominance
        ratio (that is exactly why CR is stable), so the intermediate
        system fed to RD has astronomically large |b/c| and the scan
        blows up even for small intermediate sizes."""
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = diagonally_dominant_fluid(4, 256, seed=9, dtype=np.float32)
            x = cr_rd(s, intermediate_size=128)
        assert not np.isfinite(x).all()

    def test_cr_amplifies_dominance_ratio(self):
        """The mechanism behind the previous test: each CR level grows
        the reduced system's dominance ratio |b| / (|a|+|c|)."""
        from repro.solvers.cr import forward_reduce_to

        from .conftest import equation_major_work
        s = diagonally_dominant_fluid(2, 64, seed=10, dtype=np.float64)
        cols, w = equation_major_work(s)
        ratio_before = np.min(np.abs(s.b) / (np.abs(s.a) + np.abs(s.c)
                                             + 1e-300))
        idx = forward_reduce_to(cols, 64, 8)
        off = np.abs(w.a[:, idx]) + np.abs(w.c[:, idx])
        ratio_after = np.min(np.abs(w.b[:, idx]) / (off + 1e-300))
        assert ratio_after > ratio_before ** 2

    def test_default_intermediate_sizes(self):
        assert default_intermediate_size(512, "pcr") == 256
        assert default_intermediate_size(512, "rd") == 128
        assert default_intermediate_size(4, "rd") == 2

    def test_float32(self, dominant_batch):
        x = cr_pcr(dominant_batch)
        assert x.dtype == np.float32
        assert dominant_batch.residual(x).max() < 1e-4


class TestEndpoints:
    def test_m_equals_2_matches_cr(self, dominant_batch):
        """m = 2: the inner solver sees the same 2-unknown system CR's
        middle stage solves, so results agree to rounding."""
        x_h = hybrid_solve(dominant_batch, "pcr", intermediate_size=2)
        x_cr = cyclic_reduction(dominant_batch)
        np.testing.assert_allclose(x_h, x_cr, rtol=1e-5, atol=1e-6)

    def test_m_equals_n_matches_pcr(self, dominant_batch):
        x_h = hybrid_solve(dominant_batch, "pcr",
                           intermediate_size=dominant_batch.n)
        x_pcr = parallel_cyclic_reduction(dominant_batch)
        np.testing.assert_array_equal(x_h, x_pcr)

    def test_m_equals_n_matches_rd(self, close_batch):
        x_h = hybrid_solve(close_batch, "rd",
                           intermediate_size=close_batch.n)
        x_rd = recursive_doubling(close_batch)
        np.testing.assert_array_equal(x_h, x_rd)


class TestValidation:
    def test_unknown_inner_rejected(self, dominant_small):
        with pytest.raises(ValueError, match="inner"):
            hybrid_solve(dominant_small, "thomas")

    def test_bad_intermediate_size(self, dominant_small):
        with pytest.raises(ValueError):
            hybrid_solve(dominant_small, "pcr", intermediate_size=3)
        with pytest.raises(ValueError):
            hybrid_solve(dominant_small, "pcr",
                         intermediate_size=dominant_small.n * 2)

    def test_non_power_of_two_rejected(self):
        s = diagonally_dominant_fluid(1, 20, seed=0)
        with pytest.raises(ValueError, match="power-of-two"):
            cr_pcr(s)


class TestComplexity:
    def test_table1_rows(self):
        # CR+PCR at n=512, m=256
        assert operation_count(512, 256, "pcr") == 17 * 256 + 12 * 256 * 8
        assert step_count(512, 256, "pcr") == 2 * 9 - 8 - 1
        # CR+RD at n=512, m=128
        assert operation_count(512, 128, "rd") == 17 * 384 + 20 * 128 * 7
        assert step_count(512, 128, "rd") == 2 * 9 - 7 + 1

    def test_hybrid_does_less_work_than_pcr(self):
        """Table 1's motivation: CR+PCR's op count is below PCR's for
        any m < n."""
        from repro.solvers.pcr import operation_count as pcr_ops
        n = 512
        for m in (2, 8, 64, 256):
            assert operation_count(n, m, "pcr") < pcr_ops(n)
