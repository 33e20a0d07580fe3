"""TridiagonalSystems container invariants."""

import numpy as np
import pytest

from repro.solvers.systems import TridiagonalSystems


def _simple(S=3, n=8, dtype=np.float32):
    rng = np.random.default_rng(0)
    return TridiagonalSystems(
        rng.uniform(-1, 1, (S, n)).astype(dtype),
        rng.uniform(3, 5, (S, n)).astype(dtype),
        rng.uniform(-1, 1, (S, n)).astype(dtype),
        rng.uniform(-1, 1, (S, n)).astype(dtype))


class TestConstruction:
    def test_shape_properties(self):
        s = _simple(3, 8)
        assert s.num_systems == 3
        assert s.n == 8
        assert s.shape == (3, 8)

    def test_out_of_band_entries_zeroed(self):
        s = _simple()
        assert np.all(s.a[:, 0] == 0)
        assert np.all(s.c[:, -1] == 0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="share a shape"):
            TridiagonalSystems(np.zeros((2, 8)), np.ones((2, 8)),
                               np.zeros((2, 8)), np.zeros((2, 7)))

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="num_systems"):
            TridiagonalSystems(np.zeros(8), np.ones(8), np.zeros(8),
                               np.zeros(8))

    def test_tiny_system_rejected(self):
        with pytest.raises(ValueError):
            TridiagonalSystems(np.zeros((1, 1)), np.ones((1, 1)),
                               np.zeros((1, 1)), np.zeros((1, 1)))

    def test_integer_input_promoted_to_float(self):
        s = TridiagonalSystems(np.zeros((1, 4), dtype=int),
                               np.ones((1, 4), dtype=int),
                               np.zeros((1, 4), dtype=int),
                               np.ones((1, 4), dtype=int))
        assert s.dtype.kind == "f"

    def test_from_single(self):
        s = TridiagonalSystems.from_single(
            np.zeros(4), np.ones(4), np.zeros(4), np.ones(4))
        assert s.shape == (1, 4)

    def test_construction_copies_inputs(self):
        b = np.ones((1, 4))
        s = TridiagonalSystems(np.zeros((1, 4)), b, np.zeros((1, 4)),
                               np.ones((1, 4)))
        b[0, 0] = 99
        assert s.b[0, 0] == 1


class TestDenseRoundTrip:
    def test_to_dense_from_dense(self):
        s = _simple(2, 6, dtype=np.float64)
        dense = s.to_dense()
        s2 = TridiagonalSystems.from_dense(dense, s.d)
        np.testing.assert_array_equal(s2.a, s.a)
        np.testing.assert_array_equal(s2.b, s.b)
        np.testing.assert_array_equal(s2.c, s.c)

    def test_from_dense_rejects_full_matrix(self):
        m = np.ones((1, 4, 4))
        with pytest.raises(ValueError, match="off the tridiagonal"):
            TridiagonalSystems.from_dense(m, np.ones((1, 4)))

    def test_dense_matches_matvec(self):
        s = _simple(2, 5, dtype=np.float64)
        x = np.random.default_rng(1).uniform(-1, 1, s.shape)
        dense = s.to_dense()
        expected = np.einsum("sij,sj->si", dense, x)
        np.testing.assert_allclose(s.matvec(x), expected, rtol=1e-12)


class TestMatvecResidual:
    def test_matvec_identity(self):
        n = 6
        s = TridiagonalSystems(np.zeros((1, n)), np.ones((1, n)),
                               np.zeros((1, n)), np.ones((1, n)))
        x = np.arange(n, dtype=float)[None]
        np.testing.assert_array_equal(s.matvec(x), x)

    def test_matvec_shape_mismatch(self):
        s = _simple()
        with pytest.raises(ValueError, match="shape"):
            s.matvec(np.zeros((1, 3)))

    def test_residual_zero_for_exact_solution(self):
        s = _simple(2, 8, dtype=np.float64)
        x = np.random.default_rng(2).uniform(-1, 1, s.shape)
        s2 = TridiagonalSystems(s.a, s.b, s.c, s.matvec(x))
        np.testing.assert_allclose(s2.residual(x), 0, atol=1e-12)

    def test_residual_accumulates_in_float64(self):
        s = _simple(1, 8, dtype=np.float32)
        x = np.zeros(s.shape, dtype=np.float32)
        r = s.residual(x)
        assert r.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ord", [2, np.inf])
    def test_residual_bitwise_equals_widened_copy(self, dtype, ord):
        """``residual`` widens without copying the coefficients, and
        gives the bits of the formula on a float64 copy of the batch,
        non-finite ``x`` rows included."""
        s = _simple(5, 16, dtype=dtype)
        x = np.random.default_rng(7).uniform(-2, 2, s.shape).astype(dtype)
        x[1, 3] = np.inf
        x[2, 0] = -np.inf
        x[3, 15] = np.nan
        s64 = TridiagonalSystems(*(v.astype(np.float64)
                                   for v in (s.a, s.b, s.c, s.d)))
        with np.errstate(all="ignore"):
            want = np.linalg.norm(s64.matvec(x.astype(np.float64)) - s64.d,
                                  ord=ord, axis=1)
            got = s.residual(x, ord=ord)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert not np.isfinite(got[1:4]).any()


class TestPredicates:
    def test_diagonal_dominance_true(self):
        s = _simple()  # b in [3,5], |a|+|c| <= 2
        assert s.is_diagonally_dominant().all()

    def test_diagonal_dominance_false(self):
        s = TridiagonalSystems(np.full((1, 4), 2.0), np.ones((1, 4)),
                               np.full((1, 4), 2.0), np.ones((1, 4)))
        assert not s.is_diagonally_dominant().any()

    def test_copy_is_independent(self):
        s = _simple()
        s2 = s.copy()
        s2.b[:] = 0
        assert np.all(s.b != 0)

    def test_astype(self):
        s = _simple(dtype=np.float32)
        s64 = s.astype(np.float64)
        assert s64.dtype == np.float64
        assert s.dtype == np.float32
