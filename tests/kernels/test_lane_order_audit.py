"""Lane-id-ordering regressions for the audited per-lane loops.

The vectorized engine gathers and scatters whole lane planes in *lane
order*.  Two kernels were flagged in the audit as leaning on implicit
lane-position assumptions:

* ``pcr_pingpong_kernel`` alternates source/destination coefficient
  buffers per reduction level -- the solution must come out of the
  buffer the *last* level wrote, for both odd and even level counts.
* ``rd_full_kernel``'s final evaluation step special-cases lane 0
  (which outputs ``x_0`` itself, not ``c00*x0 + c02``); the selection
  must key on the lane *id*, not the lane's position in the active
  array, because the two only coincide for prefix active sets.

These tests pin the behavior against the float64 oracle and against
the per-lane reference engine, so a future engine change that reorders
lanes or repacks active sets cannot silently corrupt either kernel.
"""

import numpy as np
import pytest

from repro.gpusim import ledgers_equal
from repro.gpusim.executor import _reference_execute, launch
from repro.kernels.common import GlobalSystemArrays
from repro.kernels.pcr_pingpong_kernel import pcr_pingpong_kernel
from repro.kernels.rd_full_kernel import rd_full_kernel
from repro.numerics.generators import diagonally_dominant_fluid
from repro.verify.oracle import compare_to_oracle

from .conftest import traced_kernel


def _both_engines(kernel, n, num_systems=2, seed=0):
    systems = diagonally_dominant_fluid(num_systems, n, seed=seed)
    gmem_vec = GlobalSystemArrays.from_systems(systems)
    vec = launch(kernel, num_blocks=num_systems, threads_per_block=n,
                 gmem=gmem_vec)
    gmem_ref = GlobalSystemArrays.from_systems(systems)
    ref = _reference_execute(kernel, num_blocks=num_systems,
                             threads_per_block=n, gmem=gmem_ref)
    return systems, vec, ref, gmem_vec, gmem_ref


class TestPcrPingpongBufferParity:
    @pytest.mark.parametrize("n", (4, 8, 16, 32, 64))
    def test_solution_correct_for_odd_and_even_level_counts(self, n):
        """log2(n)-1 buffer swaps: n = 8 ends in the opposite buffer
        from n = 16.  Both must read back the live buffer."""
        systems = diagonally_dominant_fluid(3, n, seed=2)
        x, _res = traced_kernel("pcr_pingpong", systems)
        comparison = compare_to_oracle(systems, x)
        assert comparison.rel_residual_max < 1e-4

    @pytest.mark.parametrize("n", (8, 16))
    def test_engines_bitwise_equal(self, n):
        _systems, vec, ref, gmem_vec, gmem_ref = _both_engines(
            pcr_pingpong_kernel, n, seed=9)
        assert ledgers_equal(vec.ledger, ref.ledger) == []
        assert vec.ledger.step_records == ref.ledger.step_records
        assert np.array_equal(gmem_vec.solution().view(np.uint32),
                              gmem_ref.solution().view(np.uint32))

    def test_matches_plain_pcr_solution(self):
        """Double-buffering is a layout optimization; the arithmetic
        (and hence the float32 solution) is unchanged from plain PCR,
        which keeps a read-write hazard barrier instead."""

        systems = diagonally_dominant_fluid(2, 32, seed=5)
        x_pp, _ = traced_kernel("pcr_pingpong", systems)
        x_pcr, _ = traced_kernel("pcr", systems)
        assert np.array_equal(x_pp.view(np.uint32), x_pcr.view(np.uint32))


class TestRdFullLaneZeroFixup:
    @pytest.mark.parametrize("n", (4, 8))
    def test_first_unknown_is_x0_not_recurrence(self, n):
        """Lane 0 must output x_0 itself; feeding it through the
        ``c00*x0 + c02`` recurrence (as a position-based select would
        after any active-set repack) corrupts column 0.

        Only small sizes: the naive unnormalized 3x3 products overflow
        for larger n (the instability the paper's normalized RD trick
        fixes), so oracle accuracy is only meaningful here.  Larger
        sizes are pinned bitwise against the reference engine below.
        """
        systems = diagonally_dominant_fluid(3, n, seed=4)
        x, _res = traced_kernel("rd_full", systems)
        comparison = compare_to_oracle(systems, x)
        assert comparison.rel_residual_max < 1e-3
        # Column 0 specifically: the fixup target.
        from repro.verify.oracle import oracle_solve
        x64 = oracle_solve(systems)
        assert np.allclose(x[:, 0], x64[:, 0], rtol=1e-3, atol=1e-5)

    @pytest.mark.parametrize("n", (8, 16))
    def test_engines_bitwise_equal(self, n):
        _systems, vec, ref, gmem_vec, gmem_ref = _both_engines(
            rd_full_kernel, n, seed=7)
        assert ledgers_equal(vec.ledger, ref.ledger) == []
        assert np.array_equal(gmem_vec.solution().view(np.uint32),
                              gmem_ref.solution().view(np.uint32))

    def test_scan_uses_non_prefix_active_sets(self):
        """The scan step activates lanes [stride, n) -- a contiguous
        but non-prefix set.  Pin that the divergence accounting agrees
        between engines (warp_instructions is where a lane-order bug
        in the penalty maths would land)."""
        _systems, vec, ref, _gv, _gr = _both_engines(rd_full_kernel, 64)
        assert vec.ledger.total().warp_instructions == \
            ref.ledger.total().warp_instructions
