"""BlockContext: the vectorised kernel DSL of the simulator.

Kernels are written once, against this context, and get two things for
free: *functional execution* (real float32 results, batched over all
blocks of the grid, since blocks are data-independent) and an
*architectural trace* (bank-conflict-adjusted shared-memory cycles,
coalesced global transactions, warp-granular instruction issue, sync
and step counts) recorded into a :class:`~repro.gpusim.counters.CounterLedger`.

A kernel looks like CUDA code turned inside-out: the per-thread index
arithmetic is expressed as NumPy index vectors over the *active lanes*,
and each shared/global access goes through the context so its address
pattern is costed.  Example::

    def kernel(ctx: BlockContext, n: int) -> None:
        a = ctx.shared(n)
        ...
        with ctx.phase("forward_reduction"):
            for _ in range(steps):
                with ctx.step():
                    ctx.set_active(num_threads)
                    i = stride * (ctx.lanes + 1) - 1
                    ai = ctx.sload(a, i)          # costed gather
                    ...
                    ctx.ops(mults=6, adds=4, divs=2)
                    ctx.sstore(a, i, new_ai)      # costed scatter
                    ctx.sync()

Every data-movement and cost primitive is delegated to an *execution
engine* (:mod:`~repro.gpusim.engine`): the default
:class:`~repro.gpusim.engine.VectorizedEngine` runs whole lane x system
planes per numpy op with shift-canonical pattern-cost memoization; the
:class:`~repro.gpusim.engine.ReferenceEngine` replays the same
operations with per-lane Python loops and is held bitwise-equal as the
property-test oracle.  The charging *formulas* live here, shared by
both engines, so equal cost primitives imply bitwise-equal ledgers.

Costs are recorded per block; the :mod:`~repro.gpusim.executor`
scales them to the grid.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import faults as _faults
from .counters import CounterLedger, PhaseCounters
from .device import DeviceSpec
from .engine import resolve_engine
from .memory import (GlobalArray, KernelError, SharedArray,
                     SharedMemorySpace)


class StopKernel(Exception):
    """Raised internally when a step limit is reached.

    Supports the paper's *differential timing* method (§5.3): "for
    every algorithmic step in a loop, we exit the loop early at that
    step to measure the time spent until that step."  The executor
    catches this and returns the truncated trace.
    """


class BlockContext:
    """Execution context for one kernel over a grid of identical blocks.

    Parameters
    ----------
    device:
        Architectural parameters.
    num_blocks:
        Grid size; every block runs the same code on its own data slice.
    threads_per_block:
        Block size; must not exceed ``device.max_threads_per_block``.
    dtype:
        Arithmetic precision.  The paper uses float32 throughout.
    check_contiguous_active:
        When True (default), raise if a kernel activates a
        non-contiguous lane set -- the paper's kernels never do, and a
        violation usually signals an indexing bug.  Set False to
        simulate divergent kernels (the cost model then charges extra
        warp issues).
    engine:
        Execution engine (instance, name, or None for the vectorized
        default); see :mod:`~repro.gpusim.engine`.
    functional:
        When False, the *data* path is skipped entirely: loads return
        zeros, stores are dropped, and only address validation and
        counter charging run.  The architectural trace is data-
        independent, so the resulting ledger is bitwise-identical to a
        functional run's -- this is the analytical fast path used by
        :mod:`~repro.gpusim.estimator`.

    Every access primitive checks and charges through one helper per
    memory space, :meth:`_shared_access` / :meth:`_global_access`,
    whose bounds checks run in both modes (traced and charge-only).
    """

    def __init__(self, device: DeviceSpec, num_blocks: int,
                 threads_per_block: int, dtype=np.float32,
                 check_contiguous_active: bool = True,
                 step_limit: int | None = None,
                 engine=None,
                 functional: bool = True):
        if threads_per_block > device.max_threads_per_block:
            raise KernelError(
                f"block of {threads_per_block} threads exceeds device limit "
                f"{device.max_threads_per_block}")
        if threads_per_block < 1 or num_blocks < 1:
            raise KernelError("grid and block sizes must be positive")
        self.device = device
        self.num_blocks = int(num_blocks)
        self.threads_per_block = int(threads_per_block)
        self.dtype = np.dtype(dtype)
        self.engine = resolve_engine(engine)
        self.functional = functional
        self.shared_space = SharedMemorySpace(self.num_blocks, device,
                                              dtype=self.dtype)
        self.ledger = CounterLedger()
        self.check_contiguous_active = check_contiguous_active
        self._phase_name = "main"
        self._cur_pc: PhaseCounters | None = None
        self._active = self.engine.prefix_info(self.threads_per_block, device)
        self._in_step = False
        self.step_limit = step_limit
        self._steps_executed = 0
        self._phase_step_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lane management
    # ------------------------------------------------------------------

    @property
    def lanes(self) -> np.ndarray:
        """Ids of the currently active lanes (ascending)."""
        return self._active.lanes

    @property
    def active_count(self) -> int:
        return self._active.lanes.size

    def set_active(self, lanes_or_count) -> np.ndarray:
        """Activate a contiguous prefix (int) or an explicit lane set.

        Returns the active lane ids for convenience.
        """
        if np.isscalar(lanes_or_count):
            count = int(lanes_or_count)
            if count < 0 or count > self.threads_per_block:
                raise KernelError(
                    f"active count {count} outside block of "
                    f"{self.threads_per_block}")
            self._active = self.engine.prefix_info(count, self.device)
        else:
            lanes = np.asarray(lanes_or_count, dtype=np.int64)
            if lanes.size and (lanes.min() < 0
                               or lanes.max() >= self.threads_per_block):
                raise KernelError("lane ids outside block")
            info = self.engine.lanes_info(lanes, self.device)
            if self.check_contiguous_active and not info.contiguous_range:
                raise KernelError(
                    "non-contiguous active lanes; the paper's kernels keep "
                    "active threads contiguous to avoid divergence (see §4). "
                    "Pass check_contiguous_active=False to allow this.")
            self._active = info
            self._pc().warp_instructions += info.divergence
        pc = self._pc()
        if self._active.lanes.size > pc.max_active_threads:
            pc.max_active_threads = self._active.lanes.size
        return self._active.lanes

    # ------------------------------------------------------------------
    # Phase / step attribution
    # ------------------------------------------------------------------

    def _pc(self) -> PhaseCounters:
        # The current phase's counters, cached across the many charge
        # calls inside one phase (every cost primitive lands here).
        pc = self._cur_pc
        if pc is None:
            pc = self._cur_pc = self.ledger.phase(self._phase_name)
        return pc

    @contextmanager
    def phase(self, name: str):
        """Attribute enclosed costs to phase ``name``."""
        prev = self._phase_name
        prev_pc = self._cur_pc
        self._phase_name = name
        self._cur_pc = None
        try:
            yield
        finally:
            self._phase_name = prev
            self._cur_pc = prev_pc

    @contextmanager
    def step(self):
        """One algorithmic step: snapshot counters for per-step analysis.

        Each step carries loop-control/synchronization overhead in the
        cost model (the paper finds this overhead considerable, §1).
        """
        if self._in_step:
            raise KernelError("steps do not nest")
        self._in_step = True
        pc0 = self._pc()
        before = dict(pc0.__dict__)
        index = self._phase_step_counts.get(self._phase_name, 0)
        try:
            yield
        finally:
            self._in_step = False
            pc = self._pc()
            pc.steps += 1
            after = pc.__dict__
            delta = PhaseCounters.__new__(PhaseCounters)
            delta.__dict__.update(
                {name: after[name] - prior
                 for name, prior in before.items()})
            delta.max_active_threads = self._active.lanes.size
            self.ledger.record_step(self._phase_name, index, delta)
            self._phase_step_counts[self._phase_name] = index + 1
        self._steps_executed += 1
        if self.step_limit is not None and self._steps_executed >= self.step_limit:
            raise StopKernel(self._steps_executed)

    def sync(self) -> None:
        """``__syncthreads()`` barrier (costed; functionally a no-op
        because the simulator executes whole vector instructions
        atomically).  Under an active fault plan, a barrier is also a
        shared-memory upset opportunity (silent: GT200 shared memory
        has no ECC)."""
        self._pc().syncs += 1
        if not self.functional:
            return
        plan = _faults.active_plan()
        if plan is not None:
            plan.maybe_flip_shared(self.shared_space)

    # ------------------------------------------------------------------
    # Shared memory
    # ------------------------------------------------------------------

    def shared(self, words: int) -> SharedArray:
        """Allocate a shared-memory array of ``words`` 32-bit words."""
        arr = self.shared_space.allocate(words)
        if self.shared_space.bytes_allocated > self.device.usable_shared_per_block:
            raise KernelError(
                f"shared memory footprint "
                f"{self.shared_space.bytes_allocated} B exceeds the usable "
                f"{self.device.usable_shared_per_block} B per block; systems "
                f"this large need the global-memory fallback path (paper §4)")
        return arr

    def _shared_access(self, arrs, idx, cost_idx):
        """Check ``idx`` (and ``cost_idx``) against every array in
        ``arrs`` and charge the cost pattern once per array.  Returns
        the engine's selector for ``idx``.

        The check must come first: the vectorized engine moves data by
        slices, and a slice clips or wraps out-of-range words silently
        where fancy indexing would raise."""
        idx = self._check_lane_shape(idx)
        mn, mx, sel = self.engine.idx_pattern(idx)
        cost = idx
        if cost_idx is not None:
            cost = self._check_lane_shape(cost_idx)
            cmn, cmx, _ = self.engine.idx_pattern(cost)
            mn, mx = min(mn, cmn), max(mx, cmx)
        for arr in arrs:
            if mn < 0 or mx >= arr.words:
                raise KernelError(
                    f"shared access out of bounds: [{mn}, {mx}] "
                    f"in array of {arr.words} words")
        info = self._active
        cycles, half_warps = self.engine.shared_cost(cost, info, self.device)
        pc = self._pc()
        # Exposed-latency weight: one access site, hidden by however
        # many warps this block currently has in flight.  At or beyond
        # the device's hiding threshold the pipeline covers the latency
        # completely (PCR/RD full fronts); a lone warp (late CR steps)
        # exposes nearly all of it.  A d-way bank conflict serializes
        # the access into d round-trips, so the exposure multiplies by
        # the average conflict degree -- this coupling is what makes
        # the paper's Fig 9 "with conflicts" bars tower over the
        # stride-one probe precisely when few warps remain.
        w = max(1, info.warps)
        sat = self.device.latency_hiding_warps
        degree = cycles / max(1, half_warps)
        exposure = degree * max(0.0, 1.0 / w - 1.0 / sat)
        # Multi-array accesses hit the same pattern on arrays whose
        # bases differ by a constant; bank-conflict cost is
        # shift-invariant, so one cost computation covers all of them.
        # Integer counts scale exactly; the float latency term stays
        # one array at a time to keep accumulation order (and thus the
        # ledger bits) identical to per-array charging.
        repeat = len(arrs)
        pc.shared_words += cost.size * repeat
        pc.shared_cycles += cycles * repeat
        pc.shared_instructions += half_warps * repeat
        for _ in range(repeat):
            pc.latency_units += exposure
        return sel

    def _zeros(self) -> np.ndarray:
        # A charge-only load: the data path is skipped.
        return np.zeros((self.num_blocks, self.active_count),
                        dtype=self.dtype)

    def sload(self, arr: SharedArray, idx: np.ndarray,
              cost_idx: np.ndarray | None = None) -> np.ndarray:
        """Costed shared-memory gather; one word per active lane.

        ``idx`` must have one entry per active lane (lane order).
        Returns a ``(num_blocks, len(idx))`` value array.

        ``cost_idx`` substitutes a different address pattern for cost
        accounting only -- used to reproduce the paper's Fig 9
        experiment, where the CR kernel is "modified to enforce a
        shared memory access stride of one so that it is
        bank-conflict-free.  This results in an incorrect algorithm,
        but is for timing comparison only."  Here we keep the values
        correct and make only the *cost* follow the modified addresses.
        """
        return self.sload_multi((arr,), idx, cost_idx)[0]

    def sload_multi(self, arrs, idx: np.ndarray,
                    cost_idx: np.ndarray | None = None) -> tuple:
        """Gather the same lane indices from several shared arrays.

        Equivalent to one :meth:`sload` per array (identical ledger and
        values), but the pattern cost is computed once: bank-conflict
        cost is invariant under the constant base-address shift between
        the arrays.  This is the kernels' inner-loop fast path -- CR's
        forward reduction reads the same three indices from all four
        coefficient arrays.
        """
        if not arrs:
            return ()
        sel = self._shared_access(arrs, idx, cost_idx)
        if not self.functional:
            return tuple([self._zeros() for _ in arrs])
        gather = self.engine.shared_gather
        return tuple([gather(arr, sel) for arr in arrs])

    def sstore(self, arr: SharedArray, idx: np.ndarray, values: np.ndarray,
               cost_idx: np.ndarray | None = None) -> None:
        """Costed shared-memory scatter; one word per active lane.

        See :meth:`sload` for ``cost_idx``.
        """
        self.sstore_multi((arr,), idx, (values,), cost_idx)

    def sstore_multi(self, arrs, idx: np.ndarray, values_seq,
                     cost_idx: np.ndarray | None = None) -> None:
        """Scatter to several shared arrays at the same lane indices.

        Ledger-equivalent to one :meth:`sstore` per array, with the
        pattern cost computed once (see :meth:`sload_multi`).
        """
        if len(arrs) != len(values_seq):
            raise KernelError(
                f"{len(arrs)} arrays but {len(values_seq)} value sets")
        if not arrs:
            return
        sel = self._shared_access(arrs, idx, cost_idx)
        if not self.functional:
            return
        for arr, values in zip(arrs, values_seq):
            self.engine.shared_scatter(arr, sel,
                                       np.asarray(values, dtype=self.dtype))

    # ------------------------------------------------------------------
    # Global memory
    # ------------------------------------------------------------------

    def _global_access(self, arrs, block_bases, idx
                       ) -> tuple[np.ndarray, np.ndarray]:
        """As :meth:`_shared_access`: the flat addresses ``base_b +
        idx_l`` span ``[min(idx) + min(bases), max(idx) + max(bases)]``,
        checked without building the outer sum.  Returns the int64
        ``(bases, idx)``."""
        idx = self._check_lane_shape(idx)
        bases = np.asarray(block_bases, dtype=np.int64)
        if idx.size and bases.size:
            mn, mx, _ = self.engine.idx_pattern(idx)
            bmn, bmx, _ = self.engine.idx_pattern(bases)
            mn, mx = mn + bmn, mx + bmx
            for arr in arrs:
                if mn < 0 or mx >= arr.words:
                    raise KernelError(
                        f"global access out of bounds: [{mn}, {mx}] "
                        f"in array of {arr.words} words")
        info = self._active
        pc = self._pc()
        # Half-warps are partitioned by lane id, exactly as the shared
        # path does: with a strided active-lane subset, grouping by
        # array position would undercount transactions.
        transactions = self.engine.global_cost(idx, info, self.device)
        # Exposed DRAM latency, analogous to the shared-memory term:
        # serialized transactions per half-warp, unhidden when few
        # warps are in flight.
        w = max(1, info.warps)
        sat = self.device.latency_hiding_warps
        per_halfwarp = transactions / max(1, info.half_warps)
        exposure = per_halfwarp * max(0.0, 1.0 / w - 1.0 / sat)
        # Integer counts scale exactly; float exposure keeps per-array
        # accumulation order (see _shared_access).
        repeat = len(arrs)
        pc.global_words += idx.size * repeat
        pc.global_transactions += transactions * repeat
        for _ in range(repeat):
            pc.global_latency_units += exposure
        return bases, idx

    def gload(self, arr: GlobalArray, block_bases: np.ndarray,
              idx: np.ndarray) -> np.ndarray:
        """Costed global-memory read: ``arr[base_b + idx_l]``.

        ``block_bases`` gives each block's offset into the flat array
        (the paper stores all systems contiguously, §4); ``idx`` is the
        per-lane word index within the block's slice.  Coalescing is
        evaluated on the per-block pattern ``idx`` (identical across
        blocks up to the base offset, which is segment-aligned for
        power-of-two systems).
        """
        return self.gload_multi((arr,), block_bases, idx)[0]

    def gload_multi(self, arrs, block_bases: np.ndarray,
                    idx: np.ndarray) -> tuple:
        """Read the same pattern from several global arrays.

        Ledger-equivalent to one :meth:`gload` per array; the
        coalescing cost is computed once (same per-block pattern).
        """
        bases, idx = self._global_access(arrs, block_bases, idx)
        if not self.functional:
            return tuple([self._zeros() for _ in arrs])
        gather = self.engine.global_gather
        return tuple([gather(arr, bases, idx).astype(self.dtype, copy=False)
                      for arr in arrs])

    def gstore(self, arr: GlobalArray, block_bases: np.ndarray,
               idx: np.ndarray, values: np.ndarray) -> None:
        """Costed global-memory write."""
        self.gstore_multi((arr,), block_bases, idx, (values,))

    def gstore_multi(self, arrs, block_bases: np.ndarray,
                     idx: np.ndarray, values_seq) -> None:
        """Write the same pattern to several global arrays.

        Ledger-equivalent to one :meth:`gstore` per array; the
        coalescing cost is computed once (same per-block pattern).
        """
        if len(arrs) != len(values_seq):
            raise KernelError(f"{len(arrs)} arrays but "
                              f"{len(values_seq)} value sets")
        if not arrs:
            return
        bases, idx = self._global_access(arrs, block_bases, idx)
        if not self.functional:
            return
        for arr, values in zip(arrs, values_seq):
            self.engine.global_scatter(
                arr, bases, idx, np.asarray(values, dtype=arr.data.dtype))

    # ------------------------------------------------------------------
    # Arithmetic accounting
    # ------------------------------------------------------------------

    def ops(self, total: int = 0, *, divs: int = 0, instructions: int | None = None) -> None:
        """Record arithmetic work for the current active lane set.

        Parameters
        ----------
        total:
            Arithmetic operations *per active lane*, divisions included
            (this is what Table 1 counts).
        divs:
            Of those, how many are divisions (costed extra; the paper
            singles them out in §5.3.1/§5.3.3).
        instructions:
            Vector instructions issued, defaults to ``total``.  Each
            costs ``warps(active)`` issue slots, which is how warp
            granularity enters the model.
        """
        if total < 0 or divs < 0 or divs > total:
            raise KernelError("invalid op counts")
        n_active = self.active_count
        inst = total if instructions is None else instructions
        pc = self._pc()
        pc.flops += total * n_active
        pc.divs += divs * n_active
        pc.warp_instructions += inst * self._active.warps

    # ------------------------------------------------------------------

    def _check_lane_shape(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1 or idx.size != self._active.lanes.size:
            raise KernelError(
                f"index vector of size {idx.size} does not match "
                f"{self._active.lanes.size} active lanes")
        return idx
