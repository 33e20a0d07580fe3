"""PCR kernel: functional equivalence, conflict-freedom, counters."""

import numpy as np
import pytest

from repro.analysis.complexity import compare, measured_complexity, pcr_complexity
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid
from repro.solvers.pcr import parallel_cyclic_reduction

from .conftest import traced_kernel


@pytest.fixture(scope="module")
def batch():
    return diagonally_dominant_fluid(8, 64, seed=0)


@pytest.fixture(scope="module")
def launch(batch):
    return traced_kernel("pcr", batch)


class TestFunctional:
    def test_bit_identical_to_numpy_pcr(self, batch, launch):
        x, _res = launch
        np.testing.assert_array_equal(x, parallel_cyclic_reduction(batch))

    @pytest.mark.parametrize("n", [2, 4, 32, 256])
    def test_sizes(self, n):
        s = diagonally_dominant_fluid(4, n, seed=n)
        x, _res = traced_kernel("pcr", s)
        np.testing.assert_array_equal(x, parallel_cyclic_reduction(s))


class TestCounters:
    def test_conflict_free(self, launch):
        """PCR is free of bank conflicts (§5.3.2): every phase's average
        degree is exactly 1."""
        _x, res = launch
        for name, pc in res.ledger.phases.items():
            assert pc.conflict_degree == pytest.approx(1.0), name

    def test_steps_log2n(self, batch, launch):
        _x, res = launch
        assert res.ledger.total().steps == 6  # log2(64)

    def test_constant_active_threads_in_forward(self, launch):
        """The number of active threads is constant and equal to n
        across all reduction steps (§4)."""
        _x, res = launch
        for pc in res.ledger.steps_in_phase("forward_reduction"):
            assert pc.max_active_threads == 64

    def test_counts_near_table1(self, batch, launch):
        _x, res = launch
        ratios = compare(pcr_complexity(batch.n),
                         measured_complexity("pcr", res))
        assert 0.75 <= ratios["shared_accesses"] <= 1.05
        assert 0.75 <= ratios["arithmetic_ops"] <= 1.05
        assert ratios["global_accesses"] == pytest.approx(1.0)

    def test_does_more_work_than_cr(self, batch):
        """Table 1: PCR's shared traffic and flops exceed CR's."""
        _x1, pcr_res = run_kernel("pcr", batch)
        _x2, cr_res = run_kernel("cr", batch)
        assert (pcr_res.ledger.total().shared_words
                > cr_res.ledger.total().shared_words)
        assert pcr_res.ledger.total().flops > cr_res.ledger.total().flops

    def test_fewer_steps_than_cr(self, batch):
        _x1, pcr_res = run_kernel("pcr", batch)
        _x2, cr_res = run_kernel("cr", batch)
        assert (pcr_res.ledger.total().steps
                < cr_res.ledger.total().steps)
