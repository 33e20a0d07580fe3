"""Cyclic reduction: correctness, level helpers, complexity counts."""

import numpy as np
import pytest

from repro.numerics.generators import diagonally_dominant_fluid, toeplitz_spd
from repro.solvers.cr import (back_substitute_from, cyclic_reduction,
                              forward_reduce_to, operation_count,
                              solve_two_unknowns, step_count)
from repro.solvers.thomas import thomas_batched

from .conftest import equation_major_work as _work


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256])
    def test_matches_thomas(self, n):
        s = diagonally_dominant_fluid(4, n, seed=n, dtype=np.float64)
        np.testing.assert_allclose(cyclic_reduction(s), thomas_batched(s),
                                   rtol=1e-8, atol=1e-10)

    def test_float32_residual(self, dominant_batch):
        x = cyclic_reduction(dominant_batch)
        assert dominant_batch.residual(x).max() < 1e-4

    def test_spd(self, spd_batch):
        x = cyclic_reduction(spd_batch)
        assert spd_batch.residual(x).max() < 1e-4

    def test_non_power_of_two_rejected(self):
        s = diagonally_dominant_fluid(2, 24, seed=0)
        with pytest.raises(ValueError, match="power-of-two"):
            cyclic_reduction(s)

    def test_preserves_input(self, dominant_small):
        b_before = dominant_small.b.copy()
        cyclic_reduction(dominant_small)
        np.testing.assert_array_equal(dominant_small.b, b_before)


class TestSolveTwoUnknowns:
    def test_exact_2x2(self):
        # [[2, 1], [1, 3]] [x1, x2] = [3, 4]
        x1, x2 = solve_two_unknowns(np.array(2.0), np.array(1.0),
                                    np.array(1.0), np.array(3.0),
                                    np.array(3.0), np.array(4.0))
        np.testing.assert_allclose([x1, x2], [1.0, 1.0])

    def test_vectorised(self):
        b = np.array([2.0, 4.0]); c = np.array([1.0, 1.0])
        a2 = np.array([1.0, 1.0]); b2 = np.array([3.0, 5.0])
        d = np.array([3.0, 5.0]); d2 = np.array([4.0, 6.0])
        x1, x2 = solve_two_unknowns(b, c, a2, b2, d, d2)
        np.testing.assert_allclose(b * x1 + c * x2, d)
        np.testing.assert_allclose(a2 * x1 + b2 * x2, d2)


class TestLevelHelpers:
    def test_forward_reduce_to_full_size_is_identity(self):
        s = diagonally_dominant_fluid(2, 16, seed=1, dtype=np.float64)
        cols, w = _work(s)
        idx = forward_reduce_to(cols, 16, 16)
        np.testing.assert_array_equal(idx, np.arange(16))
        np.testing.assert_array_equal(w.b, s.b)  # untouched

    def test_reduce_then_substitute_equals_cr(self):
        """Reducing to m, solving the intermediate exactly, and
        substituting back reproduces the full solution."""
        s = diagonally_dominant_fluid(3, 32, seed=2, dtype=np.float64)
        ref = thomas_batched(s)
        for m in (2, 4, 8, 16):
            arrays, w = _work(s)
            idx = forward_reduce_to(arrays, 32, m)
            inter = type(s)(w.a[:, idx], w.b[:, idx], w.c[:, idx],
                            w.d[:, idx])
            xi = thomas_batched(inter)
            x = np.zeros(s.shape, dtype=s.dtype)
            x[:, idx] = xi
            back_substitute_from(arrays, x.T, 32, m)
            np.testing.assert_allclose(x, ref, rtol=1e-8, atol=1e-10)

    def test_surviving_indices_structure(self):
        s = diagonally_dominant_fluid(1, 16, seed=3, dtype=np.float64)
        cols, w = _work(s)
        idx = forward_reduce_to(cols, 16, 4)
        np.testing.assert_array_equal(idx, [3, 7, 11, 15])

    def test_reduced_system_is_tridiagonal_consistent(self):
        """The intermediate equations couple only adjacent survivors:
        solving them as a standalone tridiagonal system gives the true
        values of the surviving unknowns."""
        s = diagonally_dominant_fluid(2, 32, seed=4, dtype=np.float64)
        ref = thomas_batched(s)
        cols, w = _work(s)
        idx = forward_reduce_to(cols, 32, 8)
        inter = type(s)(w.a[:, idx], w.b[:, idx], w.c[:, idx], w.d[:, idx])
        xi = thomas_batched(inter)
        np.testing.assert_allclose(xi, ref[:, idx], rtol=1e-8, atol=1e-10)

    def test_bad_intermediate_sizes(self):
        s = diagonally_dominant_fluid(1, 16, seed=5)
        cols, _ = _work(s)
        with pytest.raises(ValueError):
            forward_reduce_to(cols, 16, 3)
        with pytest.raises(ValueError):
            forward_reduce_to(cols, 16, 32)


class TestComplexity:
    def test_paper_counts(self):
        assert operation_count(512) == 17 * 512
        assert step_count(512) == 17  # 2 * 9 - 1
        assert step_count(2) == 1
