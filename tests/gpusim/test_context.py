"""BlockContext: counter bookkeeping, phases, steps, error paths."""

import numpy as np
import pytest

from repro.gpusim import (GTX280, BlockContext, GlobalArray, KernelError,
                          StopKernel, launch)


def make_ctx(blocks=2, threads=32):
    return BlockContext(GTX280, blocks, threads)


class TestConstruction:
    def test_block_too_large(self):
        with pytest.raises(KernelError, match="exceeds device limit"):
            BlockContext(GTX280, 1, 1024)

    def test_bad_sizes(self):
        with pytest.raises(KernelError):
            BlockContext(GTX280, 0, 32)


class TestActiveLanes:
    def test_prefix_activation(self):
        ctx = make_ctx()
        lanes = ctx.set_active(5)
        np.testing.assert_array_equal(lanes, np.arange(5))
        assert ctx.active_count == 5

    def test_contiguous_range_allowed(self):
        ctx = make_ctx()
        ctx.set_active(np.arange(8, 24))
        assert ctx.active_count == 16

    def test_non_contiguous_rejected(self):
        ctx = make_ctx()
        with pytest.raises(KernelError, match="non-contiguous"):
            ctx.set_active(np.array([0, 2, 4]))

    def test_non_contiguous_allowed_when_disabled(self):
        ctx = BlockContext(GTX280, 1, 32, check_contiguous_active=False)
        ctx.set_active(np.array([0, 2, 4]))
        assert ctx.active_count == 3

    def test_out_of_block_lane_rejected(self):
        ctx = make_ctx(threads=8)
        with pytest.raises(KernelError, match="outside block"):
            ctx.set_active(np.array([7, 8]))

    def test_count_out_of_range(self):
        ctx = make_ctx(threads=8)
        with pytest.raises(KernelError):
            ctx.set_active(9)


class TestSharedAccounting:
    def test_load_counts(self):
        ctx = make_ctx()
        arr = ctx.shared(64)
        ctx.set_active(16)
        ctx.sload(arr, np.arange(16))
        pc = ctx.ledger.phase("main")
        assert pc.shared_words == 16
        assert pc.shared_instructions == 1
        assert pc.shared_cycles == 1  # unit stride

    def test_strided_store_conflicts(self):
        ctx = make_ctx()
        arr = ctx.shared(512)
        ctx.set_active(16)
        ctx.sstore(arr, np.arange(16) * 16, np.zeros((2, 16)))
        pc = ctx.ledger.phase("main")
        assert pc.shared_cycles == 16  # 16-way conflict

    def test_cost_idx_overrides_cost_only(self):
        ctx = make_ctx()
        arr = ctx.shared(512)
        arr.data[:, :] = np.arange(512)[None, :]
        ctx.set_active(16)
        idx = np.arange(16) * 16
        vals = ctx.sload(arr, idx, cost_idx=np.arange(16))
        pc = ctx.ledger.phase("main")
        assert pc.shared_cycles == 1          # costed as unit stride
        np.testing.assert_array_equal(vals[0], idx)  # values are real

    def test_out_of_bounds_raises(self):
        ctx = make_ctx()
        arr = ctx.shared(8)
        ctx.set_active(4)
        with pytest.raises(KernelError, match="out of bounds"):
            ctx.sload(arr, np.array([0, 1, 2, 8]))

    def test_wrong_lane_count_raises(self):
        ctx = make_ctx()
        arr = ctx.shared(8)
        ctx.set_active(4)
        with pytest.raises(KernelError, match="does not match"):
            ctx.sload(arr, np.arange(3))

    def test_shared_overflow_raises(self):
        ctx = make_ctx()
        with pytest.raises(KernelError, match="footprint"):
            ctx.shared(5000)  # 20 KB > 16 KB

    def test_latency_units_scale_with_warps(self):
        ctx = make_ctx(threads=512)
        arr = ctx.shared(512)
        ctx.set_active(512)           # 16 warps: fully hidden
        ctx.sload(arr, np.arange(512))
        assert ctx.ledger.phase("main").latency_units == 0.0
        ctx.set_active(32)            # 1 warp: mostly exposed
        ctx.sload(arr, np.arange(32))
        assert ctx.ledger.phase("main").latency_units > 0.5


class TestOpsAccounting:
    def test_flops_scale_with_active(self):
        ctx = make_ctx()
        ctx.set_active(10)
        ctx.ops(5, divs=2)
        pc = ctx.ledger.phase("main")
        assert pc.flops == 50
        assert pc.divs == 20
        assert pc.warp_instructions == 5  # one warp

    def test_invalid_counts(self):
        ctx = make_ctx()
        with pytest.raises(KernelError):
            ctx.ops(2, divs=3)
        with pytest.raises(KernelError):
            ctx.ops(-1)


class TestPhasesAndSteps:
    def test_phase_attribution(self):
        ctx = make_ctx()
        arr = ctx.shared(32)
        ctx.set_active(8)
        with ctx.phase("alpha"):
            ctx.sload(arr, np.arange(8))
        with ctx.phase("beta"):
            ctx.ops(3)
        assert ctx.ledger.phase("alpha").shared_words == 8
        assert ctx.ledger.phase("beta").flops == 24
        assert ctx.ledger.phase("alpha").flops == 0

    def test_step_records_deltas(self):
        ctx = make_ctx()
        ctx.set_active(4)
        with ctx.phase("p"):
            with ctx.step():
                ctx.ops(2)
            with ctx.step():
                ctx.ops(3)
        steps = ctx.ledger.steps_in_phase("p")
        assert len(steps) == 2
        assert steps[0].flops == 8
        assert steps[1].flops == 12
        assert ctx.ledger.phase("p").steps == 2

    def test_steps_do_not_nest(self):
        ctx = make_ctx()
        with pytest.raises(KernelError, match="nest"):
            with ctx.step():
                with ctx.step():
                    pass

    def test_sync_counted(self):
        ctx = make_ctx()
        ctx.sync()
        ctx.sync()
        assert ctx.ledger.phase("main").syncs == 2

    def test_ledger_total_merges(self):
        ctx = make_ctx()
        ctx.set_active(4)
        with ctx.phase("a"):
            ctx.ops(1)
        with ctx.phase("b"):
            ctx.ops(2)
        assert ctx.ledger.total().flops == 12


class TestStepLimit:
    def test_stop_kernel_raised(self):
        ctx = BlockContext(GTX280, 1, 32, step_limit=2)
        with ctx.step():
            pass
        with pytest.raises(StopKernel):
            with ctx.step():
                pass

    def test_launch_catches_stop(self):
        def kernel(ctx):
            for _ in range(5):
                with ctx.step():
                    ctx.ops(1)
            return "finished"

        full = launch(kernel, num_blocks=1, threads_per_block=32)
        assert full.outputs == "finished"
        assert full.ledger.total().steps == 5

        cut = launch(kernel, num_blocks=1, threads_per_block=32,
                     step_limit=3)
        assert cut.outputs is None
        assert cut.ledger.total().steps == 3


class TestGlobalLaneAccounting:
    """Global coalescing partitions half-warps by lane id, exactly as
    the shared path does (regression: the global path used to bin by
    array position)."""

    def test_stride2_active_set_straddling_half_warp(self):
        """Lanes 14 and 16 land in different half-warps: one shared
        64-byte segment still costs two transactions."""
        ctx = BlockContext(GTX280, 1, 32, check_contiguous_active=False)
        from repro.gpusim import GlobalArray
        g = GlobalArray(64)
        ctx.set_active(np.array([14, 16]))
        ctx.gload(g, np.array([0]), np.array([0, 1]))
        assert ctx.ledger.total().global_transactions == 2

    def test_full_stride2_front(self):
        """Stride-2 lane front over a warp: positions would pack into
        one half-warp group, lane ids span two."""
        ctx = BlockContext(GTX280, 1, 32, check_contiguous_active=False)
        from repro.gpusim import GlobalArray
        g = GlobalArray(64)
        lanes = np.arange(0, 32, 2)
        ctx.set_active(lanes)
        ctx.gload(g, np.array([0]), lanes)   # words 0..30, segments 0 and 1
        # lane-aware: half-warp {0..14} touches segment 0 (words 0-14)
        # and {16..30} touches segment 1 -> 2 transactions; the old
        # position binning agreed here, so also pin the boundary case:
        assert ctx.ledger.total().global_transactions == 2
        ctx2 = BlockContext(GTX280, 1, 32, check_contiguous_active=False)
        ctx2.set_active(np.array([15, 16]))
        ctx2.gload(g, np.array([0]), np.array([15, 16]))
        # one word on each side of a segment AND half-warp boundary,
        # two half-warps -> 2 transactions (position binning said 2 as
        # well only because the words differ; same-segment is the
        # discriminating case covered above).
        assert ctx2.ledger.total().global_transactions == 2

    def test_prefix_active_set_unchanged(self):
        """The shipped kernels' contiguous-prefix accesses are
        untouched by the fix (golden numbers hold)."""
        ctx = make_ctx(threads=64)
        from repro.gpusim import GlobalArray
        g = GlobalArray(128)
        ctx.set_active(64)
        ctx.gload(g, np.array([0, 64]), np.arange(64))
        assert ctx.ledger.total().global_transactions == 4


#: The three modes a context runs in: traced (raw launches), planned
#: (a memo ledger, no recording) and charge-only (the estimator).
MODES = {"traced": {}, "planned": {"record_trace": False},
         "charge_only": {"functional": False}}

#: Lane patterns for two active lanes over two blocks.  Shared arrays
#: hold 8 and 4 words; global arrays 16 and 12 words, block bases 0
#: and 6.  Single-array primitives use the short array; multi-array
#: ones list the long array first, so ``past_end`` is out of bounds
#: only in the second array (every array is checked) and, for global
#: memory, only once block 1's base is added (bases are checked).
#: Shared patterns of one constant-step run move as slices, unchecked
#: by numpy: ``past_end`` would silently clip and ``negative_start``
#: (``slice(-1, 1)``) would silently read nothing.
OOB = {"shared": {"negative": [0, -1], "negative_start": [-1, 0],
                  "past_end": [3, 4]},
       "global": {"negative": [0, -1], "negative_start": [-1, 0],
                  "past_end": [5, 6]}}
IN_BOUNDS = [0, 1]

PRIMITIVES = ["sload", "sstore", "sload_multi", "sstore_multi",
              "gload", "gstore", "gload_multi", "gstore_multi",
              "sload+cost_idx", "sstore+cost_idx", "sload_multi+cost_idx",
              "sstore_multi+cost_idx"]


def _mode_ctx(engine, mode):
    return BlockContext(GTX280, 2, 32, engine=engine, **MODES[mode])


def _access(ctx, primitive, idx, cost_idx=None):
    """Issue one access through ``primitive``; return the arrays and
    what it returned."""
    ctx.set_active(2)
    name, _, with_cost = primitive.partition("+")
    if with_cost:
        cost_idx = IN_BOUNDS
    vals = np.full((2, 2), 5.0, dtype=np.float32)
    bases = np.array([0, 6])
    if name.startswith("s"):
        long_, short = ctx.shared(8), ctx.shared(4)
        for arr in (long_, short):
            arr.data[:] = np.arange(1, arr.words + 1)
        arrs = (long_, short) if name.endswith("multi") else (short,)
        kw = {} if cost_idx is None else {"cost_idx": cost_idx}
        out = {"sload": lambda: ctx.sload(short, idx, **kw),
               "sstore": lambda: ctx.sstore(short, idx, vals, **kw),
               "sload_multi": lambda: ctx.sload_multi(arrs, idx, **kw),
               "sstore_multi": lambda: ctx.sstore_multi(
                   arrs, idx, (vals, vals), **kw)}[name]()
    else:
        long_, short = (GlobalArray.from_array(
            np.arange(1, words + 1, dtype=np.float32)) for words in (16, 12))
        arrs = (long_, short) if name.endswith("multi") else (short,)
        out = {"gload": lambda: ctx.gload(short, bases, idx),
               "gstore": lambda: ctx.gstore(short, bases, idx, vals),
               "gload_multi": lambda: ctx.gload_multi(arrs, bases, idx),
               "gstore_multi": lambda: ctx.gstore_multi(
                   arrs, bases, idx, (vals, vals))}[name]()
    return arrs, out


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
@pytest.mark.parametrize("mode", list(MODES))
class TestBoundsChecking:
    """Hardware has no index wraparound: an out-of-bounds access raises
    in every engine and every mode -- the charge-only pass included, so
    ``characterize`` validates each plan's global accesses too."""

    @pytest.mark.parametrize("where", ["negative", "negative_start",
                                       "past_end"])
    @pytest.mark.parametrize("primitive", PRIMITIVES)
    def test_out_of_bounds_raises(self, engine, mode, primitive, where):
        space = "shared" if primitive.startswith("s") else "global"
        ctx = _mode_ctx(engine, mode)
        with pytest.raises(KernelError, match=f"{space} access out of "
                                              f"bounds"):
            _access(ctx, primitive, OOB[space][where])

    @pytest.mark.parametrize("primitive", PRIMITIVES[:4])
    def test_out_of_bounds_cost_idx_raises(self, engine, mode, primitive):
        """An in-bounds data pattern with an out-of-bounds cost
        pattern raises too: both patterns are checked."""
        ctx = _mode_ctx(engine, mode)
        with pytest.raises(KernelError, match="out of bounds"):
            _access(ctx, primitive, IN_BOUNDS,
                    cost_idx=OOB["shared"]["past_end"])

    @pytest.mark.parametrize("primitive", PRIMITIVES[:8])
    def test_in_bounds_moves_data(self, engine, mode, primitive):
        """In bounds nothing raises; the functional modes move the
        values and the charge-only mode moves none."""
        ctx = _mode_ctx(engine, mode)
        arrs, out = _access(ctx, primitive, IN_BOUNDS)
        functional = mode != "charge_only"
        # Array values (1-based word numbers) at blocks x lanes.
        where = ((slice(None), [0, 1]) if primitive.startswith("s")
                 else ([[0, 1], [6, 7]],))
        word = (np.array([[1, 2], [1, 2]]) if primitive.startswith("s")
                else np.array([[1, 2], [7, 8]]))
        if "load" in primitive:
            loads = out if primitive.endswith("multi") else (out,)
            assert len(loads) == len(arrs)
            for got in loads:
                assert got.dtype == np.float32
                np.testing.assert_array_equal(got,
                                              word if functional else 0)
        else:
            assert out is None
            for arr in arrs:
                np.testing.assert_array_equal(arr.data[where],
                                              5 if functional else word)


#: Shared patterns over eight lanes of a 16-word array, one per form
#: the vectorized engine moves: one constant-step run (a slice), two
#: runs (PCR's clamped ``max(lane - 3, 0)``) and an irregular pattern
#: (the index array itself).
PATTERNS = {"one_run": np.arange(8) * 2 + 1,
            "two_run_clamped": np.maximum(np.arange(8) - 3, 0),
            "fallback": np.array([5, 0, 9, 2, 2, 15, 7, 1])}


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("pattern", list(PATTERNS))
class TestGatheredPlanes:
    """A load returns a fresh C-ordered plane: kernels write into what
    they load, so a view would write through to shared memory, and an
    F-ordered plane slows every float32 op mixing it with C-ordered
    operands."""

    def test_loads_are_owned_c_planes(self, engine, mode, pattern):
        ctx = _mode_ctx(engine, mode)
        arrs = (ctx.shared(16), ctx.shared(16))
        for arr in arrs:
            arr.data[:] = np.arange(arr.data.size).reshape(arr.data.shape)
        before = [arr.data.copy() for arr in arrs]
        ctx.set_active(8)
        idx = PATTERNS[pattern]
        loads = (ctx.sload(arrs[0], idx),) + ctx.sload_multi(arrs, idx)
        for got in loads:
            assert got.shape == (2, 8)
            assert got.flags.c_contiguous and got.flags.owndata
            got[:] = -1.0
            got[:, -1] = 1.0
        for arr, old in zip(arrs, before):
            np.testing.assert_array_equal(arr.data, old)
