"""Property-based tests (hypothesis) on the solver core.

Strategy: generate random diagonally dominant batches (where every
no-pivoting algorithm is provably stable) and check solver invariants
against the Thomas reference, plus structural properties of the scan
algebra and padding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solvers.cr import cyclic_reduction
from repro.solvers.gauss import gep_batched
from repro.solvers.hybrid import hybrid_solve
from repro.solvers.pcr import parallel_cyclic_reduction
from repro.solvers.rd import combine, inclusive_scan, recursive_doubling
from repro.solvers.systems import TridiagonalSystems
from repro.solvers.thomas import thomas_batched
from repro.solvers.validate import pad_to_power_of_two

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

sizes = st.sampled_from([2, 4, 8, 16, 32])
batch_sizes = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def dominant_batch(S: int, n: int, seed: int) -> TridiagonalSystems:
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (S, n))
    c = rng.uniform(-1, 1, (S, n))
    bump = rng.uniform(0.5, 2.0, (S, n))
    b = np.abs(a) + np.abs(c) + bump
    d = rng.uniform(-1, 1, (S, n))
    return TridiagonalSystems(a, b, c, d)


# ---------------------------------------------------------------------------
# Solver equivalence properties
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(n=sizes, S=batch_sizes, seed=seeds)
def test_cr_matches_thomas_on_dominant(n, S, seed):
    s = dominant_batch(S, n, seed)
    np.testing.assert_allclose(cyclic_reduction(s), thomas_batched(s),
                               rtol=1e-7, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(n=sizes, S=batch_sizes, seed=seeds)
def test_pcr_matches_thomas_on_dominant(n, S, seed):
    s = dominant_batch(S, n, seed)
    np.testing.assert_allclose(parallel_cyclic_reduction(s),
                               thomas_batched(s), rtol=1e-7, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([4, 8, 16]), S=batch_sizes, seed=seeds,
       m_exp=st.integers(min_value=1, max_value=4))
def test_hybrid_matches_thomas_for_any_switch_point(n, S, seed, m_exp):
    m = min(2 ** m_exp, n)
    s = dominant_batch(S, n, seed)
    x = hybrid_solve(s, "pcr", intermediate_size=m)
    np.testing.assert_allclose(x, thomas_batched(s), rtol=1e-7, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([2, 4, 8]), S=batch_sizes, seed=seeds)
def test_rd_matches_thomas_on_small_dominant(n, S, seed):
    """RD is stable for small dominant systems (growth bounded)."""
    s = dominant_batch(S, n, seed)
    np.testing.assert_allclose(recursive_doubling(s), thomas_batched(s),
                               rtol=1e-5, atol=1e-6)


@pytest.mark.xfail(strict=True, reason=(
    "known accuracy defect: RD's prefix products grow like "
    "prod |b_i / c_i|, and this draw has |c| down to 0.0026"))
def test_rd_matches_thomas_on_small_c_draw():
    """A draw of the property above that RD misses (rel diff 3.3e-5)."""
    s = dominant_batch(4, 8, 23909)
    np.testing.assert_allclose(recursive_doubling(s), thomas_batched(s),
                               rtol=1e-5, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(n=sizes, S=batch_sizes, seed=seeds)
def test_gep_residual_small(n, S, seed):
    s = dominant_batch(S, n, seed)
    x = gep_batched(s)
    assert s.residual(x).max() < 1e-8 * n


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(S=batch_sizes, seed=seeds)
def test_batch_permutation_equivariance(S, seed):
    """Permuting systems within a batch permutes the solutions --
    no cross-system coupling anywhere in the implementation."""
    s = dominant_batch(S, 16, seed)
    perm = np.random.default_rng(seed).permutation(S)
    s_perm = TridiagonalSystems(s.a[perm], s.b[perm], s.c[perm], s.d[perm])
    np.testing.assert_array_equal(cyclic_reduction(s)[perm],
                                  cyclic_reduction(s_perm))


@settings(max_examples=30, deadline=None)
@given(S=batch_sizes, seed=seeds, scale=st.floats(min_value=0.25,
                                                  max_value=8.0))
def test_rhs_linearity(S, seed, scale):
    """x(alpha * d) == alpha * x(d): the solve is linear in d."""
    s = dominant_batch(S, 8, seed)
    x1 = parallel_cyclic_reduction(s)
    s2 = TridiagonalSystems(s.a, s.b, s.c, scale * s.d)
    x2 = parallel_cyclic_reduction(s2)
    np.testing.assert_allclose(x2, scale * x1, rtol=1e-7, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=40))
def test_padding_preserves_solution(seed, n):
    s = dominant_batch(2, n, seed)
    padded, orig = pad_to_power_of_two(s)
    assert orig == n
    x_ref = thomas_batched(s)
    x_pad = thomas_batched(padded)[:, :n]
    np.testing.assert_allclose(x_pad, x_ref, rtol=1e-9, atol=1e-11)


# ---------------------------------------------------------------------------
# Scan algebra properties
# ---------------------------------------------------------------------------

mat_entries = st.floats(min_value=-2.0, max_value=2.0,
                        allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.sampled_from([2, 4, 8, 16]))
def test_scan_equals_serial_product(seed, n):
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-1, 1, (1, n, 6))
    scanned = inclusive_scan(mats)
    serial = mats[:, 0]
    for i in range(1, n):
        serial = combine(mats[:, i], serial)
    np.testing.assert_allclose(scanned[:, -1], serial, rtol=1e-9,
                               atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_combine_associativity(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.uniform(-1.5, 1.5, (1, 4, 6)) for _ in range(3))
    np.testing.assert_allclose(combine(combine(a, b), c),
                               combine(a, combine(b, c)),
                               rtol=1e-9, atol=1e-10)


# ---------------------------------------------------------------------------
# Residual sanity across dtypes
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=st.sampled_from([8, 16, 32]))
def test_float32_residual_bounded(seed, n):
    s = dominant_batch(3, n, seed).astype(np.float32)
    for solver in (cyclic_reduction, parallel_cyclic_reduction):
        x = solver(s)
        # float32 eps * condition-ish bound, generous
        assert s.residual(x).max() < 1e-3
