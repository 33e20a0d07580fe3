"""Bank-conflict and coalescing accounting."""

import numpy as np
import pytest

from repro.gpusim.context import BlockContext
from repro.gpusim.device import GTX280
from repro.gpusim.engine import REFERENCE
from repro.gpusim.memory import (GlobalArray, KernelError,
                                 SharedMemorySpace,
                                 bank_conflict_cycles,
                                 coalesced_transactions,
                                 max_conflict_degree)


class TestBankConflicts:
    def test_unit_stride_conflict_free(self):
        addrs = np.arange(16)
        cycles, hw = bank_conflict_cycles(addrs, GTX280)
        assert (cycles, hw) == (1, 1)

    @pytest.mark.parametrize("stride,expected", [
        (2, 2), (4, 4), (8, 8), (16, 16), (32, 16), (64, 16),
    ])
    def test_power_of_two_strides(self, stride, expected):
        """Full half-warp with stride 2^k: min(2^k, 16)-way conflicts --
        the Fig 9 ladder."""
        addrs = np.arange(16) * stride
        assert max_conflict_degree(addrs, GTX280) == expected

    def test_same_address_broadcasts(self):
        """16 lanes reading one word: broadcast, no serialization."""
        addrs = np.zeros(16, dtype=int)
        cycles, hw = bank_conflict_cycles(addrs, GTX280)
        assert (cycles, hw) == (1, 1)

    def test_partial_half_warp_stride(self):
        """8 lanes at stride 64 words: all hit bank 0 -> 8-way
        (Fig 9's (8,1,8) label)."""
        addrs = np.arange(8) * 64
        assert max_conflict_degree(addrs, GTX280) == 8

    def test_two_half_warps_summed(self):
        addrs = np.arange(32) * 2  # 2-way in each half-warp
        cycles, hw = bank_conflict_cycles(addrs, GTX280)
        assert hw == 2
        assert cycles == 4

    def test_lane_id_grouping(self):
        """Lanes 8..23 split across two half-warps by lane id, not
        position."""
        lanes = np.arange(8, 24)
        addrs = np.arange(8, 24) * 16  # stride 16: same bank
        cycles, hw = bank_conflict_cycles(addrs, GTX280, lane_ids=lanes)
        assert hw == 2
        assert cycles == 8 + 8

    def test_empty(self):
        assert bank_conflict_cycles(np.array([], dtype=int), GTX280) == (0, 0)
        assert max_conflict_degree(np.array([], dtype=int), GTX280) == 0

    def test_odd_stride_conflict_free(self):
        """Odd strides are coprime with 16 banks -> no conflicts (the
        classic padding trick relies on this)."""
        for stride in (1, 3, 5, 7, 9, 15, 17):
            addrs = np.arange(16) * stride
            assert max_conflict_degree(addrs, GTX280) == 1, stride


class TestCoalescing:
    def test_contiguous_is_one_transaction(self):
        addrs = np.arange(16)
        assert coalesced_transactions(addrs, GTX280) == 1

    def test_contiguous_full_warp(self):
        addrs = np.arange(32)
        assert coalesced_transactions(addrs, GTX280) == 2  # two half-warps

    def test_strided_explodes(self):
        addrs = np.arange(16) * 16
        assert coalesced_transactions(addrs, GTX280) == 16

    def test_unaligned_but_within_segments(self):
        addrs = np.arange(16) + 8  # straddles two 16-word segments
        assert coalesced_transactions(addrs, GTX280) == 2


class TestSharedSpace:
    def test_bump_allocation(self):
        space = SharedMemorySpace(2, GTX280)
        a = space.allocate(100)
        b = space.allocate(28)
        assert a.base == 0
        assert b.base == 100
        assert space.words_allocated == 128
        assert space.bytes_allocated == 512

    def test_zero_allocation_rejected(self):
        space = SharedMemorySpace(1, GTX280)
        with pytest.raises(ValueError):
            space.allocate(0)

    def test_gather_scatter_roundtrip(self):
        ctx = BlockContext(GTX280, 3, 4)
        arr = ctx.shared(8)
        vals = np.arange(12, dtype=np.float32).reshape(3, 4)
        ctx.sstore(arr, np.array([1, 3, 5, 7]), vals)
        got = ctx.sload(arr, np.array([1, 3, 5, 7]))
        np.testing.assert_array_equal(got, vals)
        np.testing.assert_array_equal(arr.data[:, [0, 2, 4, 6]], 0)

    def test_word_addrs_include_base(self):
        space = SharedMemorySpace(1, GTX280)
        space.allocate(10)
        arr = space.allocate(4)
        np.testing.assert_array_equal(arr.word_addrs(np.array([0, 1])),
                                      [10, 11])


class TestGlobalArray:
    def test_block_addressing(self):
        g = GlobalArray.from_array(np.arange(12, dtype=np.float32))
        bases = np.array([0, 4, 8])
        ctx = BlockContext(GTX280, 3, 2)
        got = ctx.gload(g, bases, np.array([1, 3]))
        np.testing.assert_array_equal(got, [[1, 3], [5, 7], [9, 11]])

    def test_scatter(self):
        g = GlobalArray(8)
        ctx = BlockContext(GTX280, 2, 2)
        ctx.gstore(g, np.array([0, 4]), np.array([0, 1]),
                   np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        np.testing.assert_array_equal(g.data, [1, 2, 0, 0, 3, 4, 0, 0])


class TestLaneIdRobustness:
    """The hardware partitions by lane id; arrival order is irrelevant."""

    def test_shuffled_lane_ids_match_sorted(self):
        """An unordered lane set must not split one half-warp into
        several groups (the old contiguous-runs assumption)."""
        rng = np.random.default_rng(5)
        lanes = np.arange(16)
        addrs = np.arange(16) * 16          # one bank, 16-way conflict
        perm = rng.permutation(16)
        cycles, hw = bank_conflict_cycles(addrs[perm], GTX280,
                                          lane_ids=lanes[perm])
        assert (cycles, hw) == bank_conflict_cycles(addrs, GTX280,
                                                    lane_ids=lanes)
        assert (cycles, hw) == (16, 1)

    def test_shuffled_lanes_across_half_warps(self):
        rng = np.random.default_rng(9)
        lanes = np.arange(32)
        addrs = lanes * 2                   # 2-way in each half-warp
        perm = rng.permutation(32)
        cycles, hw = bank_conflict_cycles(addrs[perm], GTX280,
                                          lane_ids=lanes[perm])
        assert (cycles, hw) == (4, 2)
        assert max_conflict_degree(addrs[perm], GTX280,
                                   lane_ids=lanes[perm]) == 2

    def test_shuffled_lanes_coalescing(self):
        lanes = np.arange(32)
        addrs = lanes.copy()                # contiguous: 1 segment per hw
        perm = np.random.default_rng(11).permutation(32)
        assert coalesced_transactions(addrs[perm], GTX280,
                                      lane_ids=lanes[perm]) == 2

    def test_coalescing_groups_by_lane_id(self):
        """Stride-2 active set straddling a half-warp boundary: lanes
        14 and 16 are in different half-warps even though they sit in
        adjacent array positions, so one shared segment still costs
        two transactions."""
        lanes = np.array([14, 16])
        addrs = np.array([0, 1])            # same 64-byte segment
        assert coalesced_transactions(addrs, GTX280) == 1
        assert coalesced_transactions(addrs, GTX280, lane_ids=lanes) == 2

    def test_lane_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bank_conflict_cycles(np.arange(4), GTX280,
                                 lane_ids=np.arange(3))


class TestBoundsChecking:
    """The reference engine's own checks (``SharedArray._checked``,
    ``GlobalArray._flat``): the oracle moves data lane by lane and never
    relies on the context's check.  Hardware has no index wraparound:
    OOB raises, never wraps.  The context's check, in every engine and
    mode, is ``tests/gpusim/test_context.py::TestBoundsChecking``."""

    def test_shared_negative_index(self):
        space = SharedMemorySpace(1, GTX280)
        arr = space.allocate(8)
        with pytest.raises(KernelError, match="out of bounds"):
            REFERENCE.shared_gather(arr, np.array([0, -1]))
        with pytest.raises(KernelError, match="out of bounds"):
            REFERENCE.shared_scatter(arr, np.array([-1]), np.array([[1.0]]))

    def test_shared_past_the_end(self):
        space = SharedMemorySpace(2, GTX280)
        arr = space.allocate(8)
        with pytest.raises(KernelError, match="out of bounds"):
            REFERENCE.shared_gather(arr, np.array([7, 8]))
        with pytest.raises(KernelError, match="out of bounds"):
            REFERENCE.shared_scatter(arr, np.array([8]),
                                     np.zeros((2, 1), dtype=np.float32))

    def test_global_negative_flat_address(self):
        g = GlobalArray.from_array(np.arange(8, dtype=np.float32))
        with pytest.raises(KernelError, match="out of bounds"):
            REFERENCE.global_gather(g, np.array([0]), np.array([-1]))
        with pytest.raises(KernelError, match="out of bounds"):
            REFERENCE.global_scatter(g, np.array([0]), np.array([-1]),
                                     np.array([[1.0]], dtype=np.float32))

    def test_global_past_the_end(self):
        g = GlobalArray(8)
        with pytest.raises(KernelError, match="out of bounds"):
            REFERENCE.global_gather(g, np.array([4]), np.array([3, 4]))
        with pytest.raises(KernelError, match="out of bounds"):
            REFERENCE.global_scatter(g, np.array([4]), np.array([4]),
                                     np.array([[1.0]], dtype=np.float32))

    def test_in_bounds_unchanged(self):
        g = GlobalArray.from_array(np.arange(8, dtype=np.float32))
        np.testing.assert_array_equal(
            REFERENCE.global_gather(g, np.array([0, 4]), np.array([0, 3])),
            [[0, 3], [4, 7]])
