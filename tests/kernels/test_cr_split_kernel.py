"""Split-storage (Göddeke-style) conflict-free CR kernel."""

import numpy as np
import pytest

from repro.gpusim import KernelError, gt200_cost_model
from repro.kernels.api import run_kernel
from repro.kernels.cr_split_kernel import split_footprint_words
from repro.numerics.generators import diagonally_dominant_fluid
from repro.solvers.cr import cyclic_reduction

from .conftest import traced_kernel


@pytest.fixture(scope="module")
def batch():
    return diagonally_dominant_fluid(4, 256, seed=0)


@pytest.fixture(scope="module")
def launch(batch):
    return traced_kernel("cr_split", batch)


class TestFunctional:
    def test_bit_identical_to_cr(self, batch, launch):
        x, _res = launch
        np.testing.assert_array_equal(x, cyclic_reduction(batch))

    @pytest.mark.parametrize("n", [2, 4, 16, 64, 128])
    def test_sizes(self, n):
        s = diagonally_dominant_fluid(3, n, seed=n)
        x, _res = traced_kernel("cr_split", s)
        np.testing.assert_array_equal(x, cyclic_reduction(s))


class TestConflictFreedom:
    def test_every_phase_degree_one(self, launch):
        """The whole point: no bank conflicts anywhere (footnote 1)."""
        _x, res = launch
        for name, pc in res.ledger.phases.items():
            assert pc.conflict_degree == pytest.approx(1.0, abs=0.01), name

    def test_inplace_cr_conflicted_on_same_input(self, batch):
        _x, res = run_kernel("cr", batch)
        assert res.ledger.phases["forward_reduction"].conflict_degree > 2


class TestFootprint:
    def test_costs_about_twice_inplace(self, batch, launch):
        _x, res = launch
        inplace_bytes = 5 * batch.n * 4
        ratio = res.shared_bytes / inplace_bytes
        assert 1.9 <= ratio <= 2.3

    def test_512_exceeds_shared_memory(self):
        """The documented limit of this layout (the footnote's 50%
        figure needs overlay tricks we keep out for clarity)."""
        s = diagonally_dominant_fluid(2, 512, seed=1)
        with pytest.raises(KernelError, match="shared"):
            run_kernel("cr_split", s)

    def test_footprint_formula(self):
        assert split_footprint_words(8) >= 2 * 8 - 2


class TestFootnoteClaim:
    def test_similar_performance_to_hybrid(self, batch):
        """Footnote 1: the split variant 'achieves similar performance
        as our hybrid CR+PCR solver' -- within 2x here, and clearly
        faster than in-place CR."""
        cm = gt200_cost_model()
        _x, split = run_kernel("cr_split", batch)
        _x, inplace = run_kernel("cr", batch)
        _x, hybrid = run_kernel("cr_pcr", batch,
                                intermediate_size=batch.n // 2)
        t_split = cm.report(split).total_ms
        t_inplace = cm.report(inplace).total_ms
        t_hybrid = cm.report(hybrid).total_ms
        assert t_split < t_inplace
        assert t_split < 2.0 * t_hybrid
