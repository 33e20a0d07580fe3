"""The multi-block per-thread Thomas kernels and their two layouts.

Covers the tentpole contracts: interleaved and sequential runs are
*bitwise* equal (same per-lane arithmetic, different address maps),
multi-block grids with identity padding are exact, the interleaved
layout coalesces, ``run_kernel`` gates the ``layout=`` argument, and
the analytic estimator path stays bitwise-equal to the functional
simulation for every geometry.
"""

import numpy as np
import pytest

from repro.analysis.timing import modeled_grid_timing
from repro.gpusim import (GTX280, InterleavedSystemArrays, estimate_ms,
                          gt200_cost_model, launch)
from repro.kernels import plan_launch, run_kernel
from repro.numerics.generators import diagonally_dominant_fluid
from repro.solvers.thomas import thomas_batched

from .conftest import traced_kernel


class TestRunThomasBatch:
    @pytest.mark.parametrize("S,n", [(1, 8), (16, 32), (600, 16),
                                     (700, 33), (1025, 8)])
    @pytest.mark.parametrize("layout", ["sequential", "interleaved"])
    def test_matches_cpu_thomas(self, S, n, layout):
        s = diagonally_dominant_fluid(S, n, seed=1)
        x, res = traced_kernel("thomas", s, layout=layout)
        assert x.shape == (S, n)
        np.testing.assert_allclose(x, thomas_batched(s), rtol=2e-5,
                                   atol=1e-6)

    @pytest.mark.parametrize("S,n", [(32, 16), (600, 16), (1025, 8)])
    def test_layouts_bitwise_equal(self, S, n):
        """Same float32 op sequence per lane => identical bits."""
        s = diagonally_dominant_fluid(S, n, seed=2)
        xs, _ = traced_kernel("thomas", s, layout="sequential")
        xi, _ = traced_kernel("thomas", s, layout="interleaved")
        np.testing.assert_array_equal(xs, xi)

    def test_multiblock_geometry(self):
        s = diagonally_dominant_fluid(1025, 8, seed=3)
        _, res = run_kernel("thomas", s, layout="interleaved")
        assert res.threads_per_block == GTX280.max_threads_per_block
        assert res.num_blocks == 3          # ceil(1025/512), padded

    def test_interleaved_coalesces(self):
        s = diagonally_dominant_fluid(64, 64, seed=4)
        _, seq = run_kernel("thomas", s, layout="sequential")
        _, inter = run_kernel("thomas", s, layout="interleaved")
        t_s = seq.ledger.total().global_transactions
        t_i = inter.ledger.total().global_transactions
        assert t_s > 10 * t_i

    def test_bad_layout_rejected(self):
        s = diagonally_dominant_fluid(2, 8, seed=0)
        with pytest.raises(ValueError, match="layout must be one of"):
            run_kernel("thomas", s, layout="diagonal")


class TestRunKernelLayout:
    def test_dispatches_interleaved_thomas(self):
        s = diagonally_dominant_fluid(48, 16, seed=5)
        x, res = traced_kernel("thomas", s, layout="interleaved")
        np.testing.assert_allclose(x, thomas_batched(s), rtol=2e-5,
                                   atol=1e-6)

    def test_sequential_layout_accepted_everywhere(self):
        s = diagonally_dominant_fluid(2, 16, seed=5)
        x, _ = run_kernel("cr", s, layout="sequential")
        assert x.shape == (2, 16)

    def test_interleaved_rejected_for_shared_memory_kernels(self):
        s = diagonally_dominant_fluid(2, 16, seed=5)
        with pytest.raises(ValueError, match="does not take layout"):
            run_kernel("cr", s, layout="interleaved")


class TestEstimatorAgreement:
    """The analytic launch must stay bitwise-equal to the functional
    simulate-then-cost path for both layouts and any block count."""

    @pytest.mark.parametrize("S,n", [(4, 8), (512, 8), (600, 16),
                                     (2048, 8), (1, 512)])
    @pytest.mark.parametrize("layout", ["sequential", "interleaved"])
    def test_bitwise_equal_modeled_ms(self, S, n, layout):
        # A raw launch of the whole grid records its own trace.
        plan = plan_launch("thomas", n, S, layout=layout)
        result = launch(plan.kernel, num_blocks=plan.num_blocks,
                        threads_per_block=plan.threads_per_block,
                        gmem=plan.load(diagonally_dominant_fluid(S, n,
                                                                 seed=1)))
        measured = gt200_cost_model().report(result).total_ms
        analytic = estimate_ms("thomas", n, S, layout=layout)
        assert measured == analytic
        lay = None if layout == "sequential" else layout
        assert modeled_grid_timing("thomas", n, S,
                                   layout=lay).solver_ms == analytic


class TestInterleavedSystemArrays:
    def test_roundtrip_and_stride(self):
        s = diagonally_dominant_fluid(6, 8, seed=6)
        gmem = InterleavedSystemArrays.from_systems(s)
        assert gmem.system_stride == 6
        # element j of system i sits at j*S + i
        np.testing.assert_array_equal(
            gmem.b.data.reshape(8, 6).T, s.b.astype(np.float32))

    def test_plan_layout_tagged(self):
        """The same (S, n) shape must never share a ledger-memo key
        across layouts, and each plan stages its own container."""
        from repro.kernels.common import GlobalSystemArrays
        s = diagonally_dominant_fluid(4, 8, seed=7)
        inter = plan_launch("thomas", 8, 4, layout="interleaved")
        seq = plan_launch("thomas", 8, 4)
        assert inter.block != seq.block
        assert isinstance(inter.load(s), InterleavedSystemArrays)
        assert isinstance(seq.load(s), GlobalSystemArrays)

    def test_fault_walker_sees_arrays(self):
        """ECC-upset detection walks dataclass fields one level; the
        interleaved container must expose its GlobalArrays that way."""
        from repro.gpusim.faults import find_global_arrays
        s = diagonally_dominant_fluid(4, 8, seed=8)
        gmem = InterleavedSystemArrays.from_systems(s)
        arrs = find_global_arrays({"gmem": gmem})
        assert gmem.a in arrs and gmem.x in arrs
