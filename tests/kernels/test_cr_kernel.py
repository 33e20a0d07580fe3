"""CR kernel: functional equivalence, counters, conflict pattern."""

import numpy as np
import pytest

from repro.analysis.complexity import compare, cr_complexity, measured_complexity
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid
from repro.solvers.cr import cyclic_reduction

from .conftest import traced_kernel


@pytest.fixture(scope="module")
def batch():
    return diagonally_dominant_fluid(8, 64, seed=0)


@pytest.fixture(scope="module")
def launch(batch):
    return traced_kernel("cr", batch)


class TestFunctional:
    def test_bit_identical_to_numpy_cr(self, batch, launch):
        x, _res = launch
        np.testing.assert_array_equal(x, cyclic_reduction(batch))

    @pytest.mark.parametrize("n", [2, 4, 16, 128])
    def test_sizes(self, n):
        s = diagonally_dominant_fluid(4, n, seed=n)
        x, _res = traced_kernel("cr", s)
        np.testing.assert_array_equal(x, cyclic_reduction(s))

    def test_conflict_free_variant_same_values(self, batch):
        x_normal, _ = traced_kernel("cr", batch)
        x_cf, _ = traced_kernel("cr", batch, conflict_free_timing=True)
        np.testing.assert_array_equal(x_normal, x_cf)


class TestCounters:
    def test_global_accesses_5n(self, batch, launch):
        _x, res = launch
        assert res.ledger.total().global_words == 5 * batch.n

    def test_steps_match_table1(self, batch, launch):
        _x, res = launch
        # 2 log2 n - 1 algorithmic steps (Table 1)
        assert res.ledger.total().steps == 2 * 6 - 1

    def test_divisions_near_3n(self, batch, launch):
        _x, res = launch
        ratios = compare(cr_complexity(batch.n),
                         measured_complexity("cr", res))
        assert 0.8 <= ratios["divisions"] <= 1.1

    def test_shared_accesses_near_23n(self, batch, launch):
        _x, res = launch
        ratios = compare(cr_complexity(batch.n),
                         measured_complexity("cr", res))
        assert 0.85 <= ratios["shared_accesses"] <= 1.1

    def test_ops_near_17n(self, batch, launch):
        _x, res = launch
        ratios = compare(cr_complexity(batch.n),
                         measured_complexity("cr", res))
        assert 0.85 <= ratios["arithmetic_ops"] <= 1.15

    def test_shared_footprint_five_arrays(self, batch, launch):
        _x, res = launch
        assert res.shared_bytes == 5 * batch.n * 4


class TestConflictPattern:
    def test_fig9_degree_ladder(self):
        """Forward reduction at n = 512: degrees 2,4,8,16,16,8,4,2."""
        s = diagonally_dominant_fluid(2, 512, seed=1)
        _x, res = run_kernel("cr", s)
        degrees = [round(pc.conflict_degree)
                   for pc in res.ledger.steps_in_phase("forward_reduction")]
        assert degrees == [2, 4, 8, 16, 16, 8, 4, 2]

    def test_active_thread_halving(self):
        s = diagonally_dominant_fluid(2, 512, seed=2)
        _x, res = run_kernel("cr", s)
        actives = [pc.max_active_threads
                   for pc in res.ledger.steps_in_phase("forward_reduction")]
        assert actives == [256, 128, 64, 32, 16, 8, 4, 2]

    def test_conflict_free_variant_degree_one(self):
        s = diagonally_dominant_fluid(2, 512, seed=3)
        _x, res = run_kernel("cr", s, conflict_free_timing=True)
        for pc in res.ledger.steps_in_phase("forward_reduction"):
            assert pc.conflict_degree == pytest.approx(1.0, abs=0.05)

    def test_backward_phase_also_conflicted(self, launch):
        _x, res = launch
        bwd = res.ledger.phases["backward_substitution"]
        assert bwd.conflict_degree > 1.5


class TestOccupancy:
    def test_512_runs_one_block_per_sm(self):
        s = diagonally_dominant_fluid(2, 512, seed=4)
        _x, res = run_kernel("cr", s)
        assert res.blocks_per_sm == 1

    def test_64_runs_many_blocks(self, launch):
        _x, res = launch
        assert res.blocks_per_sm >= 4
