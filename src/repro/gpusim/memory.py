"""Shared- and global-memory models: banking, conflicts, coalescing.

Shared memory on GT200 is organised in 16 banks of 32-bit words; words
at addresses ``w`` and ``w + 16k`` live in the same bank.  When several
lanes of a *half-warp* (16 lanes) touch distinct words in the same bank,
the accesses serialize: an access instruction whose worst bank holds
``d`` distinct words costs ``d`` access slots ("d-way bank conflict",
paper §4, §5.3.1 and Fig 9).  Lanes reading the *same* word do not
conflict (the data is broadcast).

Global memory coalescing follows the GT200 rule for 32-bit accesses:
each half-warp's addresses are binned into aligned 64-byte segments;
one transaction is issued per touched segment.  A fully contiguous,
aligned half-warp access therefore costs one transaction, a stride-16
access costs 16.

The cost functions here are the hot path of every simulated access
instruction, so they are implemented as pure numpy (no Python loops):
addresses are sorted by ``(half_warp, bank, address)`` with one
:func:`numpy.lexsort`, run boundaries in the sorted order mark new
``(half_warp, bank)`` pairs and new distinct words, and segmented
reductions (:func:`numpy.add.reduceat` / :func:`numpy.maximum.reduceat`)
fold them into per-pair distinct-word counts and per-half-warp worst
banks.  The original loop implementations are retained as
``_reference_*`` oracles and property-tested against the vectorized
versions (``tests/gpusim/test_vectorized_memory.py``).

In both implementations lanes are partitioned the way the hardware
does it -- by ``lane_id // granularity``, never by array position --
and addresses are first put in lane-id order, so an unordered
``lane_ids`` vector cannot split one half-warp into several groups.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .device import DeviceSpec


class KernelError(RuntimeError):
    """Raised for kernel programming errors (bad indices, bad active set)."""


def _lane_order(addrs: np.ndarray, lane_ids: np.ndarray | None,
                device: DeviceSpec) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(addrs, groups)`` with addresses in lane-id order.

    ``groups[i]`` is the half-warp id (``lane // granularity``) of the
    address at ``addrs[i]``.  When ``lane_ids`` is None the addresses
    are assumed to belong to lanes ``0..k-1``.  Unordered lane ids are
    sorted (stably, together with their addresses) so grouping always
    follows the hardware partition regardless of arrival order.

    One access instruction carries exactly one address per lane, so a
    repeated lane id is a caller bug: silently accepting it would
    attribute two addresses to one lane and corrupt the half-warp
    grouping (both the conflict and the transaction counts).
    """
    g = device.conflict_granularity
    if lane_ids is None:
        return addrs, np.arange(addrs.size, dtype=np.int64) // g
    lanes = np.asarray(lane_ids, dtype=np.int64).ravel()
    if lanes.size != addrs.size:
        raise ValueError(
            f"lane_ids has {lanes.size} entries for {addrs.size} addresses")
    if lanes.size > 1 and np.any(np.diff(lanes) < 0):
        order = np.argsort(lanes, kind="stable")
        addrs = addrs[order]
        lanes = lanes[order]
    if lanes.size > 1:
        dup = np.flatnonzero(np.diff(lanes) == 0)
        if dup.size:
            raise KernelError(
                f"duplicate lane id {int(lanes[dup[0]])} in access: one "
                f"lane issues exactly one address per instruction")
    return addrs, lanes // g


def _half_warp_groups(addrs: np.ndarray, device: DeviceSpec,
                      lane_ids: np.ndarray | None):
    """Yield per-half-warp address groups (reference implementation).

    Grouping follows the hardware: lanes are partitioned by
    ``lane_id // granularity``.  When ``lane_ids`` is None the addresses
    are assumed to belong to lanes ``0..k-1``.
    """
    addrs, groups = _lane_order(addrs, lane_ids, device)
    if lane_ids is None:
        g = device.conflict_granularity
        for start in range(0, addrs.size, g):
            yield addrs[start:start + g]
        return
    boundaries = np.flatnonzero(np.diff(groups)) + 1
    yield from np.split(addrs, boundaries)


def _pair_runs(addrs: np.ndarray, groups: np.ndarray, nbanks: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct-word counts per (half-warp, bank) pair, in sorted order.

    Returns ``(per_pair, pair_groups)`` where ``per_pair[j]`` is the
    number of distinct words pair ``j`` holds and ``pair_groups[j]``
    its half-warp id, ordered by (half-warp, bank).
    """
    banks = addrs % nbanks
    order = np.lexsort((addrs, banks, groups))
    ga, ba, aa = groups[order], banks[order], addrs[order]
    new_pair = np.empty(aa.size, dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (ga[1:] != ga[:-1]) | (ba[1:] != ba[:-1])
    distinct = np.empty(aa.size, dtype=bool)
    distinct[0] = True
    distinct[1:] = new_pair[1:] | (aa[1:] != aa[:-1])
    pair_starts = np.flatnonzero(new_pair)
    per_pair = np.add.reduceat(distinct.astype(np.int64), pair_starts)
    return per_pair, ga[pair_starts]


def bank_conflict_cycles(word_addrs: np.ndarray, device: DeviceSpec,
                         lane_ids: np.ndarray | None = None
                         ) -> tuple[int, int]:
    """Serialization cost of one shared-memory access instruction.

    Parameters
    ----------
    word_addrs:
        1-D integer array of 32-bit word addresses, one per *active*
        lane, in the same order as ``lane_ids``.
    device:
        Supplies bank count and conflict granularity.
    lane_ids:
        Ids of the active lanes (same order as ``word_addrs``), used to
        partition accesses into half-warps the way the hardware does.
        Defaults to lanes ``0..k-1``.

    Returns
    -------
    (cycles, half_warps):
        ``cycles`` is the total number of access slots consumed: for
        each half-warp, the maximum over banks of the number of
        *distinct* words in that bank (same-word accesses broadcast).
        ``half_warps`` is the number of half-warp groups touched (the
        conflict-free cost).
    """
    addrs = np.asarray(word_addrs, dtype=np.int64).ravel()
    if addrs.size == 0:
        return 0, 0
    addrs, groups = _lane_order(addrs, lane_ids, device)
    per_pair, pair_groups = _pair_runs(addrs, groups,
                                       device.shared_mem_banks)
    new_group = np.empty(pair_groups.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = pair_groups[1:] != pair_groups[:-1]
    group_starts = np.flatnonzero(new_group)
    worst = np.maximum.reduceat(per_pair, group_starts)
    return int(worst.sum()), int(group_starts.size)


def max_conflict_degree(word_addrs: np.ndarray, device: DeviceSpec,
                        lane_ids: np.ndarray | None = None) -> int:
    """Worst-case n-way conflict degree across half-warps of one access."""
    addrs = np.asarray(word_addrs, dtype=np.int64).ravel()
    if addrs.size == 0:
        return 0
    addrs, groups = _lane_order(addrs, lane_ids, device)
    per_pair, _ = _pair_runs(addrs, groups, device.shared_mem_banks)
    return int(per_pair.max())


def coalesced_transactions(word_addrs: np.ndarray, device: DeviceSpec,
                           lane_ids: np.ndarray | None = None) -> int:
    """Number of global-memory transactions for one access instruction.

    Half-warp granularity, aligned segments of
    ``device.coalesce_segment_bytes`` (64 B = 16 words on GT200): one
    transaction per distinct ``(half_warp, segment)`` pair.  As in
    :func:`bank_conflict_cycles`, ``lane_ids`` partitions the accesses
    into half-warps by lane id; the default is lanes ``0..k-1``.
    """
    addrs = np.asarray(word_addrs, dtype=np.int64).ravel()
    if addrs.size == 0:
        return 0
    addrs, groups = _lane_order(addrs, lane_ids, device)
    words_per_seg = device.coalesce_segment_bytes // device.bank_width_bytes
    segs = addrs // words_per_seg
    order = np.lexsort((segs, groups))
    gs, ss = groups[order], segs[order]
    if gs.size == 1:
        return 1
    return 1 + int(np.count_nonzero((gs[1:] != gs[:-1])
                                    | (ss[1:] != ss[:-1])))


# ----------------------------------------------------------------------
# Reference oracles: the original loop implementations, retained for
# property testing the vectorized versions above (and nothing else).
# ----------------------------------------------------------------------

def _reference_bank_conflict_cycles(word_addrs: np.ndarray,
                                    device: DeviceSpec,
                                    lane_ids: np.ndarray | None = None
                                    ) -> tuple[int, int]:
    """Loop-based oracle for :func:`bank_conflict_cycles`."""
    addrs = np.asarray(word_addrs, dtype=np.int64).ravel()
    if addrs.size == 0:
        return 0, 0
    nbanks = device.shared_mem_banks
    cycles = 0
    half_warps = 0
    for group in _half_warp_groups(addrs, device, lane_ids):
        half_warps += 1
        banks = group % nbanks
        worst = 1
        for b in np.unique(banks):
            distinct = np.unique(group[banks == b]).size
            if distinct > worst:
                worst = distinct
        cycles += int(worst)
    return cycles, half_warps


def _reference_max_conflict_degree(word_addrs: np.ndarray,
                                   device: DeviceSpec,
                                   lane_ids: np.ndarray | None = None) -> int:
    """Loop-based oracle for :func:`max_conflict_degree`."""
    addrs = np.asarray(word_addrs, dtype=np.int64).ravel()
    if addrs.size == 0:
        return 0
    nbanks = device.shared_mem_banks
    worst_overall = 1
    for group in _half_warp_groups(addrs, device, lane_ids):
        banks = group % nbanks
        for b in np.unique(banks):
            distinct = np.unique(group[banks == b]).size
            if distinct > worst_overall:
                worst_overall = distinct
    return int(worst_overall)


def _reference_coalesced_transactions(word_addrs: np.ndarray,
                                      device: DeviceSpec,
                                      lane_ids: np.ndarray | None = None
                                      ) -> int:
    """Loop-based oracle for :func:`coalesced_transactions`."""
    addrs = np.asarray(word_addrs, dtype=np.int64).ravel()
    if addrs.size == 0:
        return 0
    words_per_seg = device.coalesce_segment_bytes // device.bank_width_bytes
    transactions = 0
    for group in _half_warp_groups(addrs, device, lane_ids):
        transactions += int(np.unique(group // words_per_seg).size)
    return transactions


class SharedMemorySpace:
    """Per-block shared memory, batched across all blocks of a grid.

    The simulator runs every block of a grid simultaneously (they are
    data-independent), so storage is a ``(num_blocks, words)`` float32
    array.  Address *patterns* are identical across blocks -- the cost
    of an access is computed once from the pattern and applies to each
    block.

    Allocation is a simple bump allocator mirroring CUDA's static
    ``__shared__`` layout; the total footprint feeds the occupancy rule.
    """

    def __init__(self, num_blocks: int, device: DeviceSpec,
                 dtype=np.float32):
        self.device = device
        self.num_blocks = num_blocks
        self.dtype = np.dtype(dtype)
        self._words_allocated = 0
        self._segments: list[np.ndarray] = []

    @property
    def words_allocated(self) -> int:
        return self._words_allocated

    @property
    def bytes_allocated(self) -> int:
        return self._words_allocated * self.device.bank_width_bytes

    def allocate(self, words: int) -> "SharedArray":
        """Reserve ``words`` 32-bit words; returns a banked array view."""
        if words <= 0:
            raise ValueError(f"shared allocation must be positive, got {words}")
        base = self._words_allocated
        self._words_allocated += int(words)
        data = np.zeros((self.num_blocks, words), dtype=self.dtype)
        arr = SharedArray(self, data, base)
        self._segments.append(data)
        return arr


class SharedArray:
    """A named region of shared memory with bank-aware access helpers.

    ``data`` has shape ``(num_blocks, words)``.  Loads/stores take a
    1-D index array (the per-lane word index, identical across blocks)
    and return / accept ``(num_blocks, len(idx))`` value arrays.
    Cost accounting is done by the :class:`~repro.gpusim.context.BlockContext`,
    which calls :func:`bank_conflict_cycles` on ``base + idx``.

    Accesses are bounds-checked: hardware has no index wraparound, so a
    negative index (an ``i-1`` at ``i=0``) or one past the allocation
    raises :class:`KernelError` instead of silently hitting numpy's
    wrapped/tail elements.
    """

    def __init__(self, space: SharedMemorySpace, data: np.ndarray, base: int):
        self.space = space
        self.data = data
        self.base = base

    @property
    def words(self) -> int:
        return self.data.shape[1]

    def word_addrs(self, idx: np.ndarray) -> np.ndarray:
        """Absolute word addresses for bank accounting."""
        return self.base + np.asarray(idx, dtype=np.int64)

    def _checked(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.words):
            raise KernelError(
                f"shared access out of bounds: indices span "
                f"[{idx.min()}, {idx.max()}] in array of {self.words} words")
        return idx

    def gather(self, idx: np.ndarray) -> np.ndarray:
        """Read ``data[:, idx]`` (no cost accounting here)."""
        return self.data[:, self._checked(idx)]

    def scatter(self, idx: np.ndarray, values: np.ndarray) -> None:
        """Write ``values`` to ``data[:, idx]`` (no cost accounting here)."""
        self.data[:, self._checked(idx)] = values


class GlobalArray:
    """A flat global-memory array shared by all blocks of a grid.

    Layout follows the paper (§4): the data of all systems is stored
    contiguously, system 0 first.  Shape ``(words,)``; blocks address it
    with per-lane word indices offset by ``block_id * system_stride``.
    For simulation efficiency the batched accessors take the per-block
    base offsets as a vector.

    As with :class:`SharedArray`, flat addresses outside ``[0, words)``
    raise :class:`KernelError` -- numpy's negative-index wraparound
    would otherwise make an off-by-one read the array tail.
    """

    def __init__(self, words: int, dtype=np.float32):
        self.data = np.zeros(int(words), dtype=dtype)

    @classmethod
    def from_array(cls, values: np.ndarray) -> "GlobalArray":
        out = cls(values.size, dtype=values.dtype)
        out.data[:] = np.asarray(values).ravel()
        return out

    @property
    def words(self) -> int:
        return self.data.size

    def _flat(self, block_bases: np.ndarray, idx: np.ndarray) -> np.ndarray:
        flat = (np.asarray(block_bases, dtype=np.int64)[:, None]
                + np.asarray(idx, dtype=np.int64)[None, :])
        if flat.size and (flat.min() < 0 or flat.max() >= self.data.size):
            raise KernelError(
                f"global access out of bounds: flat addresses span "
                f"[{flat.min()}, {flat.max()}] in array of "
                f"{self.data.size} words")
        return flat

    def gather(self, block_bases: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Read ``data[base_b + idx_l]`` for every block b, lane l."""
        return self.data[self._flat(block_bases, idx)]

    def scatter(self, block_bases: np.ndarray, idx: np.ndarray,
                values: np.ndarray) -> None:
        self.data[self._flat(block_bases, idx)] = values


@dataclasses.dataclass
class InterleavedSystemArrays:
    """The five flat global arrays in the *interleaved* batch layout.

    Where the paper's sequential layout stores system ``s`` contiguously
    (element ``j`` at ``s*n + j``; see
    :class:`repro.kernels.common.GlobalSystemArrays`), the interleaved
    layout stores element ``j`` of system ``s`` at ``j*num_systems + s``
    -- element ``j`` of *every* system is adjacent (Gloster et al.,
    arXiv:1909.04539; cuSPARSE ``gtsvInterleavedBatch``).  A
    one-thread-per-system kernel then reads at unit stride across the
    thread front: each half-warp's 16 loads land in one or two aligned
    64-byte segments instead of 16.

    The class mirrors the sequential container's protocol (``a..d``,
    ``x``, ``num_systems``, ``n``, ``from_systems``, ``solution``) so
    kernels and the fault-injection transfer hooks treat the two
    layouts uniformly.  (A dataclass so
    :func:`repro.gpusim.faults.find_global_arrays` walks its fields,
    keeping post-launch ECC upset detection layout-uniform.)
    """

    a: GlobalArray
    b: GlobalArray
    c: GlobalArray
    d: GlobalArray
    x: GlobalArray
    num_systems: int
    n: int

    @property
    def system_stride(self) -> int:
        """Words between consecutive elements of one system (= S)."""
        return self.num_systems

    @classmethod
    def from_systems(cls, systems) -> "InterleavedSystemArrays":
        """Build from any batch carrying ``(S, n)`` coefficient arrays
        (``a, b, c, d`` attributes plus ``num_systems``/``n``).

        Interleaving happens on the host; the host-to-device staging is
        the PCIe leg an active fault plan may corrupt, exactly as on
        the sequential layout.
        """
        S, n = int(systems.num_systems), int(systems.n)

        def _interleaved(arr) -> GlobalArray:
            plane = np.asarray(arr, dtype=np.float32)
            return GlobalArray.from_array(
                np.ascontiguousarray(plane.T).ravel())

        gmem = cls(a=_interleaved(systems.a), b=_interleaved(systems.b),
                   c=_interleaved(systems.c), d=_interleaved(systems.d),
                   x=GlobalArray(S * n, dtype=np.float32),
                   num_systems=S, n=n)
        from . import faults as _faults
        plan = _faults.active_plan()
        if plan is not None:
            plan.corrupt_transfer([gmem.a, gmem.b, gmem.c, gmem.d],
                                  direction="h2d")
        return gmem

    def solution(self) -> np.ndarray:
        """De-interleave the solution back to ``(num_systems, n)``.

        The device-to-host copy is the other PCIe leg an active fault
        plan may corrupt.
        """
        x = np.ascontiguousarray(
            self.x.data.reshape(self.n, self.num_systems).T)
        from . import faults as _faults
        plan = _faults.active_plan()
        if plan is not None:
            plan.corrupt_transfer([x], direction="d2h")
        return x
