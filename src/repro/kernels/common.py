"""Shared plumbing for the instrumented solver kernels.

All kernels use the paper's storage layout (§4): five flat global
arrays (a, b, c, d, x) holding every system contiguously, system 0
first.  Each block solves one system; global traffic happens only at
the start (stage the four inputs into shared memory) and the end
(write the solution back), so all five solvers have identical 5n-word
global footprints (Table 1's last column).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim import BlockContext, GlobalArray
from repro.gpusim import faults as _faults
from repro.solvers.systems import TridiagonalSystems

#: Phase names shared across kernels so analyses can line figures up.
PHASE_GLOBAL_LOAD = "global_load"
PHASE_GLOBAL_STORE = "global_store"


@dataclass
class GlobalSystemArrays:
    """The five flat global arrays plus layout metadata."""

    a: GlobalArray
    b: GlobalArray
    c: GlobalArray
    d: GlobalArray
    x: GlobalArray
    num_systems: int
    n: int

    @classmethod
    def from_systems(cls, systems: TridiagonalSystems) -> "GlobalSystemArrays":
        S, n = systems.shape
        gmem = cls(
            a=GlobalArray.from_array(systems.a.astype(np.float32)),
            b=GlobalArray.from_array(systems.b.astype(np.float32)),
            c=GlobalArray.from_array(systems.c.astype(np.float32)),
            d=GlobalArray.from_array(systems.d.astype(np.float32)),
            x=GlobalArray(S * n, dtype=np.float32),
            num_systems=S, n=n)
        # Host-to-device staging is the PCIe leg an active fault plan
        # may corrupt (detected upsets raise DataCorruptionError here).
        plan = _faults.active_plan()
        if plan is not None:
            plan.corrupt_transfer([gmem.a, gmem.b, gmem.c, gmem.d],
                                  direction="h2d")
        return gmem

    @property
    def block_bases(self) -> np.ndarray:
        """Word offset of each block's system slice."""
        return np.arange(self.num_systems, dtype=np.int64) * self.n

    def solution(self) -> np.ndarray:
        """The solution array reshaped to ``(num_systems, n)``.

        The device-to-host copy is the other PCIe leg an active fault
        plan may corrupt.
        """
        x = self.x.data.reshape(self.num_systems, self.n).copy()
        plan = _faults.active_plan()
        if plan is not None:
            plan.corrupt_transfer([x], direction="d2h")
        return x


def stage_inputs_to_shared(ctx: BlockContext, gmem: GlobalSystemArrays,
                           shared_arrays, elems_per_thread: int) -> None:
    """Load a, b, c, d from global into shared memory, coalesced.

    Threads cooperate: with ``t`` threads and ``n`` words per array,
    each thread moves ``elems_per_thread = n // t`` words per array at
    unit stride across the thread front (fully coalesced; the paper
    reports 48.5 GB/s for this pattern).
    """
    n = gmem.n
    bases = gmem.block_bases
    lanes = ctx.lanes
    t = lanes.size
    for g_arr, s_arr in zip((gmem.a, gmem.b, gmem.c, gmem.d), shared_arrays):
        for chunk in range(elems_per_thread):
            idx = lanes + chunk * t
            vals = ctx.gload(g_arr, bases, idx)
            ctx.sstore(s_arr, idx, vals)
    ctx.sync()
    assert elems_per_thread * t == n, "staging must cover the system"


def store_solution_from_shared(ctx: BlockContext, gmem: GlobalSystemArrays,
                               x_shared, elems_per_thread: int) -> None:
    """Write the solution from shared memory back to global, coalesced."""
    bases = gmem.block_bases
    lanes = ctx.lanes
    t = lanes.size
    for chunk in range(elems_per_thread):
        idx = lanes + chunk * t
        vals = ctx.sload(x_shared, idx)
        ctx.gstore(gmem.x, bases, idx, vals)


def log2_int(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1
