"""Execution engines: batched whole-plane ops vs the per-lane oracle.

The simulator executes one kernel over ``num_blocks`` data-independent
blocks.  Everything a kernel does per access instruction -- gather or
scatter a lane-indexed slice of a ``(num_blocks, words)`` plane, cost
the address pattern (bank conflicts, coalescing), and account warp
granularity for the active lane set -- factors through an *engine*:

* :class:`VectorizedEngine` (the default) runs each operation as one
  batched numpy op across all lanes x systems at once and memoizes the
  pure-function parts process-wide:

  - **Active-set geometry** (warps touched, half-warps touched,
    divergence penalty, contiguity) is keyed by the lane set and the
    device's warp/conflict granularity.  Kernels activate the same few
    prefixes over and over across steps and launches.
  - **Address-pattern costs** are keyed by a *shift-canonical* form of
    the pattern.  Bank-conflict cost is invariant under adding any
    constant to all addresses (banks permute bijectively and word
    distinctness is preserved), so the shared-memory key is
    ``idx - idx[0]`` -- which also makes the cost independent of the
    array's base offset, letting one cached entry serve the same
    pattern on all four coefficient arrays.  Coalescing cost is
    invariant only under segment-aligned shifts, so the global key
    subtracts ``(min(idx) // words_per_segment) * words_per_segment``.
  - **Index patterns** are keyed by their raw bytes in one pattern
    memo (:meth:`VectorizedEngine.idx_pattern`): one hash gives the
    span the context bounds-checks and a *selector*, the pattern as
    one or two constant-step runs of basic slices.  Shared memory
    moves by those slices.  Every gather returns a fresh C-ordered
    plane -- never a view, since kernels write into what they load,
    and never the F-ordered plane fancy indexing returns, which slows
    every float32 op that mixes it with C-ordered operands.

* :class:`ReferenceEngine` is the property-test oracle: per-lane,
  per-block Python loops for data movement, the ``_reference_*`` loop
  implementations from :mod:`~repro.gpusim.memory` for costs, and
  loop-based warp accounting.  Nothing is cached.  It must stay
  bitwise-equal to the vectorized engine -- ledgers, traces and float32
  outputs -- under ``tests/gpusim/test_vectorized_engine.py``; the
  executor exposes it via ``_reference_execute``.

Both engines feed the *same* charging formulas in
:class:`~repro.gpusim.context.BlockContext` (the float latency terms
are sensitive to accumulation order), so equality of the integer cost
primitives implies bitwise equality of the ledgers.
The context bounds-checks every access before an engine moves data,
so the vectorized gathers/scatters use ``arr.data`` directly; the
oracle keeps its own checked loops on the index array.  The check is
load-bearing for slices: where fancy indexing raises, a slice past the
end clips and one from a negative start wraps, silently.
"""

from __future__ import annotations

import numpy as np

from .device import DeviceSpec
from .memory import (GlobalArray, SharedArray, bank_conflict_cycles,
                     coalesced_transactions,
                     _reference_bank_conflict_cycles,
                     _reference_coalesced_transactions)
from .warp import divergence_penalty_warps, is_contiguous_range, warps_touched


def _selector(idx: np.ndarray):
    """The slice form of an index pattern, for moving shared planes.

    The pattern is split greedily into constant-step runs of lanes.
    One run with a nonzero step is a basic ``slice`` of words.  Up to
    two runs give a tuple of ``(lanes, words, src)`` slices, one per
    run: a gather copies ``words`` into ``lanes``, a scatter copies the
    values' ``src`` lanes into ``words``.  A step-0 run reads one word
    as a broadcast column and writes its last lane, as fancy
    assignment does.  A longer pattern keeps a read-only copy of the
    index array.
    """
    runs = []
    a, k = 0, idx.size
    while a < k:
        if len(runs) == 2:
            frozen = idx.copy()
            frozen.setflags(write=False)
            return frozen
        first, step, b = int(idx[a]), 1, a + 1
        if b < k:
            d = np.diff(idx[a:])
            bad = np.flatnonzero(d != d[0])
            step = int(d[0])
            b += int(bad[0]) if bad.size else d.size
        if step == 0:
            runs.append((slice(a, b), slice(first, first + 1),
                         slice(b - 1, b)))
        else:
            stop = first + step * (b - a)
            runs.append((slice(a, b),
                         slice(first, stop if stop >= 0 else None, step),
                         slice(a, b)))
        a = b
    if len(runs) == 1 and runs[0][1].step is not None:
        return runs[0][1]       # one run with a nonzero step
    return tuple(runs) if runs else slice(0, 0)


class ActiveInfo:
    """Cached geometry of one active lane set on one device.

    ``lanes`` preserves the order the kernel supplied (gathers and
    scatters follow lane order); ``key`` is a hashable identity used to
    key pattern-cost memo entries, since conflict grouping depends on
    which lanes issue the addresses.
    """

    __slots__ = ("lanes", "key", "warps", "half_warps", "divergence",
                 "contiguous_range")

    def __init__(self, lanes: np.ndarray, key, warps: int, half_warps: int,
                 divergence: int, contiguous_range: bool):
        self.lanes = lanes
        self.key = key
        self.warps = warps
        self.half_warps = half_warps
        self.divergence = divergence
        self.contiguous_range = contiguous_range


class VectorizedEngine:
    """Whole-plane numpy execution with process-wide pattern memos."""

    name = "vectorized"

    #: (device, lanes-identity) -> ActiveInfo.  Class-level: lane-set
    #: geometry is a pure function of (device, lane ids).
    _active_cache: dict = {}
    #: (device, lanes-key, canonical shared pattern) -> (cycles, half_warps)
    _shared_cost_cache: dict = {}
    #: (device, lanes-key, canonical global pattern) -> transactions
    _global_cost_cache: dict = {}
    #: index-pattern bytes -> (min, max, selector): the one pattern
    #: memo.  Bounds checks and data movement see the same few
    #: patterns thousands of times per grid; one hash gives both the
    #: span and the slice form (see :func:`_selector`).
    _pattern_cache: dict = {}

    # -- active-set geometry -------------------------------------------

    def prefix_info(self, count: int, device: DeviceSpec) -> ActiveInfo:
        key = (device, count)
        info = self._active_cache.get(key)
        if info is None:
            lanes = np.arange(count, dtype=np.int64)
            lanes.setflags(write=False)
            info = ActiveInfo(
                lanes, ("p", count), warps_touched(lanes, device),
                int(np.unique(lanes // device.conflict_granularity).size)
                if count else 0,
                divergence_penalty_warps(lanes, device), True)
            self._active_cache[key] = info
        return info

    def lanes_info(self, lanes: np.ndarray, device: DeviceSpec) -> ActiveInfo:
        key = (device, lanes.tobytes())
        info = self._active_cache.get(key)
        if info is None:
            frozen = lanes.copy()
            frozen.setflags(write=False)
            info = ActiveInfo(
                frozen, ("s", key[1]), warps_touched(frozen, device),
                int(np.unique(frozen // device.conflict_granularity).size)
                if frozen.size else 0,
                divergence_penalty_warps(frozen, device),
                is_contiguous_range(frozen))
            self._active_cache[key] = info
        return info

    # -- pattern costs -------------------------------------------------

    def idx_pattern(self, idx: np.ndarray) -> tuple:
        """Memoized ``(min, max, selector)`` of an index pattern;
        ``(0, -1, ...)`` when empty (so ``max < words`` holds
        vacuously).  Keyed on the raw bytes -- unlike the cost memos,
        neither the span nor the selector is shift-invariant.  The
        selector is only valid once the span has been checked: a slice
        clips or wraps where fancy indexing would raise."""
        key = idx.tobytes()
        entry = self._pattern_cache.get(key)
        if entry is None:
            lo, hi = (int(idx.min()), int(idx.max())) if idx.size else (0, -1)
            entry = self._pattern_cache[key] = (lo, hi, _selector(idx))
        return entry

    def shared_cost(self, idx: np.ndarray, info: ActiveInfo,
                    device: DeviceSpec) -> tuple[int, int]:
        """(cycles, half_warps) of one shared access instruction.

        Keyed shift-canonically: bank-conflict cost is invariant under
        ``addrs + c`` for any constant ``c``, so the base offset of the
        :class:`SharedArray` never enters and ``idx - idx[0]`` is a
        complete identity for the pattern.
        """
        if idx.size == 0:
            return (0, 0)
        key = (device, info.key, (idx - idx[0]).tobytes())
        cost = self._shared_cost_cache.get(key)
        if cost is None:
            cost = bank_conflict_cycles(idx, device, lane_ids=info.lanes)
            self._shared_cost_cache[key] = cost
        return cost

    def global_cost(self, idx: np.ndarray, info: ActiveInfo,
                    device: DeviceSpec) -> int:
        """Transactions of one global access instruction.

        Coalescing bins addresses into aligned segments, so the cost is
        only invariant under segment-aligned shifts; the key subtracts
        the containing segment of the minimum address.
        """
        if idx.size == 0:
            return 0
        wps = device.coalesce_segment_bytes // device.bank_width_bytes
        shift = (int(idx.min()) // wps) * wps
        key = (device, info.key, (idx - shift).tobytes())
        cost = self._global_cost_cache.get(key)
        if cost is None:
            cost = coalesced_transactions(idx, device, lane_ids=info.lanes)
            self._global_cost_cache[key] = cost
        return cost

    # -- data movement -------------------------------------------------

    def shared_gather(self, arr: SharedArray, sel) -> np.ndarray:
        """A fresh C-ordered ``(num_blocks, lanes)`` plane: never a
        view, since kernels write into what they load."""
        if type(sel) is slice:
            return arr.data[:, sel].copy()
        if type(sel) is tuple:
            out = np.empty((arr.data.shape[0], sel[-1][0].stop),
                           dtype=arr.data.dtype)
            for lanes, words, _ in sel:
                out[:, lanes] = arr.data[:, words]
            return out
        return arr.data.take(sel, axis=1)

    def shared_scatter(self, arr: SharedArray, sel,
                       values: np.ndarray) -> None:
        if type(sel) is tuple:
            values = np.broadcast_to(
                values, (arr.data.shape[0], sel[-1][0].stop))
            for _, words, src in sel:
                arr.data[:, words] = values[:, src]
        else:
            arr.data[:, sel] = values

    def global_gather(self, arr: GlobalArray, block_bases: np.ndarray,
                      idx: np.ndarray) -> np.ndarray:
        return arr.data[block_bases[:, None] + idx]

    def global_scatter(self, arr: GlobalArray, block_bases: np.ndarray,
                       idx: np.ndarray, values: np.ndarray) -> None:
        arr.data[block_bases[:, None] + idx] = values


class ReferenceEngine:
    """Per-lane, per-block oracle; slow, loop-based, uncached."""

    name = "reference"

    # -- active-set geometry -------------------------------------------

    @staticmethod
    def _loop_stats(lanes: np.ndarray, device: DeviceSpec
                    ) -> tuple[int, int, int, bool]:
        """(warps, half_warps, divergence, contiguous_range) by loops."""
        ids = [int(l) for l in lanes]
        warps = len({l // device.warp_size for l in ids})
        half_warps = len({l // device.conflict_granularity for l in ids})
        # Divergence penalty, multiset semantics: a warp's occupancy is
        # the number of (possibly duplicated) active entries it holds,
        # matching the vectorized np.unique(..., return_counts=True).
        occupancy: dict[int, int] = {}
        for l in ids:
            w = l // device.warp_size
            occupancy[w] = occupancy.get(w, 0) + 1
        contiguous = True
        prefix = bool(ids)
        if ids:
            s = sorted(ids)
            prefix = s[0] == 0
            for a, b in zip(s, s[1:]):
                if b - a != 1:
                    contiguous = False
                    prefix = False
                    break
        if not ids:
            divergence = 0
        elif prefix:
            divergence = 0
        else:
            partial = sum(1 for c in occupancy.values()
                          if c < device.warp_size)
            needed = -(-len(ids) // device.warp_size)
            divergence = (max(0, len(occupancy) - needed)
                          + max(0, partial - 1))
        return warps, half_warps, divergence, contiguous

    def prefix_info(self, count: int, device: DeviceSpec) -> ActiveInfo:
        lanes = np.arange(count, dtype=np.int64)
        warps, half_warps, divergence, _ = self._loop_stats(lanes, device)
        return ActiveInfo(lanes, ("p", count), warps, half_warps,
                          divergence, True)

    def lanes_info(self, lanes: np.ndarray, device: DeviceSpec) -> ActiveInfo:
        warps, half_warps, divergence, contiguous = self._loop_stats(
            lanes, device)
        return ActiveInfo(lanes, ("s", lanes.tobytes()), warps, half_warps,
                          divergence, contiguous)

    # -- pattern costs -------------------------------------------------

    @staticmethod
    def idx_pattern(idx: np.ndarray) -> tuple:
        """Span by direct loop; the selector is the index array itself
        (the oracle moves data lane by lane and never memoizes)."""
        if idx.size == 0:
            return (0, -1, idx)
        ids = [int(i) for i in idx]
        return (min(ids), max(ids), idx)

    def shared_cost(self, idx: np.ndarray, info: ActiveInfo,
                    device: DeviceSpec) -> tuple[int, int]:
        if idx.size == 0:
            return (0, 0)
        return _reference_bank_conflict_cycles(idx, device,
                                               lane_ids=info.lanes)

    def global_cost(self, idx: np.ndarray, info: ActiveInfo,
                    device: DeviceSpec) -> int:
        if idx.size == 0:
            return 0
        return _reference_coalesced_transactions(idx, device,
                                                 lane_ids=info.lanes)

    # -- data movement -------------------------------------------------

    def shared_gather(self, arr: SharedArray, idx: np.ndarray) -> np.ndarray:
        idx = arr._checked(idx)
        out = np.empty((arr.data.shape[0], idx.size), dtype=arr.data.dtype)
        for block in range(arr.data.shape[0]):
            for lane, word in enumerate(idx):
                out[block, lane] = arr.data[block, word]
        return out

    def shared_scatter(self, arr: SharedArray, idx: np.ndarray,
                       values: np.ndarray) -> None:
        idx = arr._checked(idx)
        values = np.broadcast_to(values, (arr.data.shape[0], idx.size))
        for block in range(arr.data.shape[0]):
            for lane, word in enumerate(idx):
                arr.data[block, word] = values[block, lane]

    def global_gather(self, arr: GlobalArray, block_bases: np.ndarray,
                      idx: np.ndarray) -> np.ndarray:
        flat = arr._flat(block_bases, idx)
        out = np.empty(flat.shape, dtype=arr.data.dtype)
        for block in range(flat.shape[0]):
            for lane in range(flat.shape[1]):
                out[block, lane] = arr.data[flat[block, lane]]
        return out

    def global_scatter(self, arr: GlobalArray, block_bases: np.ndarray,
                       idx: np.ndarray, values: np.ndarray) -> None:
        flat = arr._flat(block_bases, idx)
        values = np.broadcast_to(values, flat.shape)
        for block in range(flat.shape[0]):
            for lane in range(flat.shape[1]):
                arr.data[flat[block, lane]] = values[block, lane]


#: Engine singletons; both are stateless apart from process-wide memos.
VECTORIZED = VectorizedEngine()
REFERENCE = ReferenceEngine()

_BY_NAME = {"vectorized": VECTORIZED, "reference": REFERENCE}


def resolve_engine(engine) -> VectorizedEngine | ReferenceEngine:
    """Accept an engine instance, a name, or None (-> vectorized)."""
    if engine is None:
        return VECTORIZED
    if isinstance(engine, str):
        try:
            return _BY_NAME[engine]
        except KeyError:
            raise ValueError(
                f"unknown engine {engine!r}; available: "
                f"{sorted(_BY_NAME)}") from None
    return engine


def clear_pattern_caches() -> None:
    """Drop the vectorized engine's process-wide memos (tests only)."""
    VectorizedEngine._active_cache.clear()
    VectorizedEngine._shared_cost_cache.clear()
    VectorizedEngine._global_cost_cache.clear()
    VectorizedEngine._pattern_cache.clear()
