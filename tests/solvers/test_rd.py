"""Recursive doubling: scan algebra, correctness, overflow behaviour."""

import warnings

import numpy as np
import pytest

from repro.numerics.generators import (close_values,
                                       diagonally_dominant_fluid)
from repro.solvers.rd import (R00, R02, build_matrices,
                              evaluate_solution, inclusive_scan,
                              operation_count, recursive_doubling,
                              step_count)
from repro.solvers.thomas import thomas_batched

from .conftest import combine_stored as combine
from .conftest import planes, stored


def full_3x3(stored):
    """Expand the 2x3 stored representation to full 3x3 matrices."""
    *lead, six = stored.shape
    out = np.zeros((*lead, 3, 3), dtype=stored.dtype)
    out[..., 0, :] = stored[..., 0:3]
    out[..., 1, :] = stored[..., 3:6]
    out[..., 2, 2] = 1.0
    return out


class TestCombine:
    def test_matches_full_matrix_product(self, rng):
        a = rng.uniform(-1, 1, (4, 7, 6))
        b = rng.uniform(-1, 1, (4, 7, 6))
        got = full_3x3(combine(a, b))
        expected = full_3x3(a) @ full_3x3(b)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_associative(self, rng):
        a, b, c = (rng.uniform(-1, 1, (2, 3, 6)) for _ in range(3))
        left = combine(combine(a, b), c)
        right = combine(a, combine(b, c))
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)

    def test_identity(self):
        ident = np.zeros((1, 1, 6))
        ident[..., 0] = 1.0   # r00
        ident[..., 4] = 1.0   # r11
        rng = np.random.default_rng(0)
        m = rng.uniform(-1, 1, (1, 1, 6))
        np.testing.assert_allclose(combine(m, ident), m, atol=1e-15)
        np.testing.assert_allclose(combine(ident, m), m, atol=1e-15)


class TestScan:
    def test_matches_serial_prefix_product(self, rng):
        mats = rng.uniform(-0.9, 0.9, (2, 8, 6))
        scanned = stored(inclusive_scan(planes(mats)))
        running = mats[:, 0]
        for i in range(1, 8):
            running = combine(mats[:, i], running)
            np.testing.assert_allclose(scanned[:, i], running,
                                       rtol=1e-10, atol=1e-12)

    def test_first_element_unchanged(self, rng):
        mats = rng.uniform(-1, 1, (1, 16, 6))
        scanned = stored(inclusive_scan(planes(mats)))
        np.testing.assert_array_equal(scanned[:, 0], mats[:, 0])

    def test_input_not_mutated(self, rng):
        mats = planes(rng.uniform(-1, 1, (1, 8, 6)))
        before = [p.copy() for p in mats]
        inclusive_scan(mats)
        np.testing.assert_array_equal(mats, before)


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256])
    def test_matches_thomas_on_close_values(self, n):
        s = close_values(4, n, seed=n, dtype=np.float64)
        x = recursive_doubling(s)
        ref = thomas_batched(s)
        np.testing.assert_allclose(x, ref, rtol=1e-5, atol=1e-7)

    def test_small_dominant_ok(self):
        s = diagonally_dominant_fluid(4, 8, seed=1, dtype=np.float64)
        x = recursive_doubling(s)
        assert s.residual(x).max() < 1e-8

    def test_non_power_of_two_rejected(self):
        s = close_values(1, 10, seed=0)
        with pytest.raises(ValueError, match="power-of-two"):
            recursive_doubling(s)


class TestOverflow:
    def test_float32_dominant_overflows_beyond_64(self):
        """The paper's §5.4 finding: float32 RD overflows for
        diagonally dominant systems larger than ~64."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = diagonally_dominant_fluid(4, 256, seed=2, dtype=np.float32)
            x = recursive_doubling(s)
        assert not np.isfinite(x).all()

    def test_close_values_survive_large_n(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = close_values(4, 256, seed=3, dtype=np.float32)
            x = recursive_doubling(s)
        assert np.isfinite(x).all()
        # Residuals are worse than the dominant case but bounded
        # (Fig 18 right-hand cluster).
        assert s.residual(x).max() < 10.0


class TestBuildMatrices:
    def test_last_equation_formal_c(self):
        s = close_values(1, 4, seed=4, dtype=np.float64)
        m = stored(build_matrices(*s.equation_major()))
        # Last matrix built with c = 1: r00 == -b, r02 == d.
        np.testing.assert_allclose(m[0, -1, R00], -s.b[0, -1])
        np.testing.assert_allclose(m[0, -1, R02], s.d[0, -1])

    def test_evaluation_reconstructs_chain(self):
        """x_{i+1} = C_i[0,0] x0 + C_i[0,2] must satisfy each original
        equation when plugged back in."""
        s = close_values(2, 16, seed=5, dtype=np.float64)
        x = evaluate_solution(inclusive_scan(
            build_matrices(*s.equation_major()))).T
        assert s.residual(x).max() < 1e-7


class TestComplexity:
    def test_paper_counts(self):
        assert operation_count(512) == 20 * 512 * 9
        assert step_count(512) == 11  # log2(512) + 2
