"""Parallel cyclic reduction: correctness and structural properties."""

import numpy as np
import pytest

from repro.numerics.generators import diagonally_dominant_fluid
from repro.solvers.pcr import (operation_count, parallel_cyclic_reduction,
                               pcr_on_arrays, pcr_reduction_step, step_count)
from repro.solvers.thomas import thomas_batched

from .conftest import equation_major_work as _work


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 4, 8, 32, 128])
    def test_matches_thomas(self, n):
        s = diagonally_dominant_fluid(4, n, seed=n, dtype=np.float64)
        np.testing.assert_allclose(parallel_cyclic_reduction(s),
                                   thomas_batched(s), rtol=1e-8, atol=1e-10)

    def test_float32_residual(self, dominant_batch):
        x = parallel_cyclic_reduction(dominant_batch)
        assert dominant_batch.residual(x).max() < 1e-4

    def test_non_power_of_two_rejected(self):
        s = diagonally_dominant_fluid(1, 12, seed=0)
        with pytest.raises(ValueError, match="power-of-two"):
            parallel_cyclic_reduction(s)

    def test_matches_cr(self, dominant_batch):
        from repro.solvers.cr import cyclic_reduction
        x_pcr = parallel_cyclic_reduction(dominant_batch)
        x_cr = cyclic_reduction(dominant_batch)
        np.testing.assert_allclose(x_pcr, x_cr, rtol=1e-3, atol=1e-4)


class TestReductionStep:
    def test_splits_into_decoupled_subsystems(self):
        """After one PCR step with stride 1, even- and odd-indexed
        equations no longer reference each other (Fig 2: the system
        splits into two half-size systems)."""
        s = diagonally_dominant_fluid(2, 16, seed=1, dtype=np.float64)
        cols, w = _work(s)
        pcr_reduction_step(cols, 1, 16)
        # Each equation i now couples i-2 and i+2: solve the even and
        # odd subsystems independently and compare with the truth.
        ref = thomas_batched(s)
        for parity in (0, 1):
            idx = np.arange(parity, 16, 2)
            sub = type(s)(w.a[:, idx], w.b[:, idx], w.c[:, idx],
                          w.d[:, idx])
            xs = thomas_batched(sub)
            np.testing.assert_allclose(xs, ref[:, idx], rtol=1e-8,
                                       atol=1e-10)

    def test_invariant_zero_boundaries_grow(self):
        """After k steps, a[i] == 0 for i < 2^k and c[i] == 0 for
        i >= n - 2^k (the index-clamping invariant)."""
        s = diagonally_dominant_fluid(2, 32, seed=2, dtype=np.float64)
        cols, w = _work(s)
        stride = 1
        for k in range(1, 5):
            pcr_reduction_step(cols, stride, 32)
            stride *= 2
            assert np.all(w.a[:, :stride] == 0), f"step {k}"
            assert np.all(w.c[:, -stride:] == 0), f"step {k}"


class TestOnArrays:
    def test_matches_wrapper(self, dominant_small):
        x = pcr_on_arrays(dominant_small.equation_major()).T
        np.testing.assert_array_equal(
            x, parallel_cyclic_reduction(dominant_small))

    def test_two_unknown_case(self):
        a = np.array([[0.0, 1.0]]); b = np.array([[2.0, 3.0]])
        c = np.array([[1.0, 0.0]]); d = np.array([[3.0, 4.0]])
        x = pcr_on_arrays(np.stack([a.T, b.T, c.T, d.T])).T
        np.testing.assert_allclose(x, [[1.0, 1.0]])


class TestComplexity:
    def test_paper_counts(self):
        assert operation_count(512) == 12 * 512 * 9
        assert step_count(512) == 9
