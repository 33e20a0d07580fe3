"""Drivers: run the instrumented kernels on a batch of systems.

Every launch is first resolved into a :class:`LaunchPlan` by
:func:`plan_launch` -- the one place the launch rules (threads per
block, grid size, kernel arguments, batch layout) live.  The functional
``run_*`` drivers and the analytic estimator
(:mod:`repro.gpusim.estimator`) both consume plans.

Each ``run_*`` function stages the systems in global memory, launches
the planned kernel on the simulated device, and returns
``(x, LaunchResult)`` -- the solution plus the architectural trace.
The paper's kernels have data-independent schedules, so a planned
launch executes functionally without recording a trace and references
the plan's estimator memo entry, which supplies its ledger (a private
copy, made when first read), its price and its telemetry; under an
active fault plan or a ``step_limit`` it traces for real.  Feed the
result to
:func:`repro.gpusim.gt200.gt200_cost_model` (or any
:class:`~repro.gpusim.CostModel`) for modeled timings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.gpusim import (GTX280, DeviceSpec, GlobalArray,
                          InterleavedSystemArrays, LaunchResult, launch)
from repro.gpusim import faults as _faults
from repro.gpusim.estimator import characterize
from repro.solvers.hybrid import default_intermediate_size
from repro.solvers.systems import TridiagonalSystems
from repro.solvers.validate import require_power_of_two

from .common import GlobalSystemArrays
from .cr_global_kernel import cr_global_kernel
from .cr_kernel import cr_kernel
from .cr_split_kernel import cr_split_kernel
from .hybrid_kernel import cr_pcr_kernel, cr_rd_kernel
from .pcr_kernel import pcr_kernel
from .pcr_pingpong_kernel import pcr_pingpong_kernel
from .rd_full_kernel import rd_full_kernel
from .rd_kernel import rd_kernel
from .thomas_kernel import (LAYOUTS, pad_identity, thomas_interleaved_kernel,
                            thomas_sequential_kernel)

#: One-block-per-system kernels: name -> (kernel, unknowns per thread).
_BLOCK_KERNELS = {
    "cr": (cr_kernel, 2),
    "pcr": (pcr_kernel, 1),
    "rd": (rd_kernel, 1),
    "cr_pcr": (cr_pcr_kernel, 2),
    "cr_rd": (cr_rd_kernel, 2),
    "cr_split": (cr_split_kernel, 2),
    "cr_global": (cr_global_kernel, 2),
    "pcr_pingpong": (pcr_pingpong_kernel, 1),
    "rd_full": (rd_full_kernel, 1),
}

#: Every kernel a :class:`LaunchPlan` can name.
PLANNED_KERNELS = frozenset(_BLOCK_KERNELS) | {"thomas"}


@dataclass(frozen=True)
class LaunchPlan:
    """One resolved launch: everything its ledger depends on.

    ``kwargs`` holds the kernel's structural arguments as sorted
    ``(name, value)`` pairs; ``systems_per_block`` is 1 for the
    fine-grained kernels and the block's thread count for the
    per-thread Thomas mapping.  Plans are hashable: the estimator keys
    its plan memo on :attr:`block`.  :func:`plan_launch` hands out one
    shared plan per argument set, so a repeated shape resolves its
    block form once.
    """

    kernel: Callable
    n: int
    threads_per_block: int
    num_blocks: int
    device: DeviceSpec
    kwargs: tuple[tuple[str, Any], ...] = ()
    layout: str = "sequential"
    systems_per_block: int = 1

    @cached_property
    def block(self) -> "LaunchPlan":
        """The plan's one-block form.  Per-block charges do not depend
        on the block count, so this is the plan memo's key."""
        return replace(self, num_blocks=1)

    def _arrays(self):
        return (InterleavedSystemArrays if self.layout == "interleaved"
                else GlobalSystemArrays)

    def load(self, systems: TridiagonalSystems):
        """Stage ``systems`` in global memory in the plan's layout,
        identity-padded to fill the grid."""
        padded = pad_identity(systems,
                              self.num_blocks * self.systems_per_block)
        return self._arrays().from_systems(padded)

    def stub(self):
        """Zero-filled global arrays for one block, built directly (no
        ``from_systems``: a charge-only run must not trip an active
        fault plan's h2d hook)."""
        words = self.systems_per_block * self.n
        return self._arrays()(
            *(GlobalArray(words, dtype=np.float32) for _ in range(5)),
            num_systems=self.systems_per_block, n=self.n)


@lru_cache(maxsize=1024, typed=True)
def plan_launch(name: str, n: int, num_systems: int = 1, *,
                intermediate_size: int | None = None,
                device: DeviceSpec = GTX280,
                layout: str | None = None,
                conflict_free_timing: bool = False) -> LaunchPlan:
    """Resolve kernel ``name`` on ``num_systems`` systems of ``n``.

    The fine-grained kernels run one block per system with ``n`` or
    ``n/2`` threads (hybrids: at least ``m``, defaulting to the
    paper-derived switch point) and read the sequential layout only.
    The per-thread ``"thomas"`` kernel packs ``min(S, max_threads)``
    systems into each block, in either layout; its grid is padded with
    identity systems to whole blocks, which keeps the interleave stride
    a multiple of the 16-word transaction segment whenever more than
    one block exists.

    Plans are frozen, so each argument set resolves once and its plan
    is shared (an LRU of 1024 argument sets).
    """
    layout = layout or "sequential"
    if name == "thomas":
        if layout not in LAYOUTS:
            raise ValueError(
                f"layout must be one of {LAYOUTS}, got {layout!r}")
        if num_systems < 1:
            raise ValueError(
                f"thomas needs num_systems >= 1, got {num_systems}")
        if intermediate_size is not None:
            raise ValueError(f"kernel {name!r} takes no intermediate size")
        threads = min(int(num_systems), device.max_threads_per_block)
        kernel = (thomas_interleaved_kernel if layout == "interleaved"
                  else thomas_sequential_kernel)
        num_blocks = -(-int(num_systems) // threads)
        return LaunchPlan(kernel, int(n), threads, num_blocks, device,
                          layout=layout, systems_per_block=threads)
    if name not in _BLOCK_KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; available: {sorted(PLANNED_KERNELS)}")
    kernel, per_thread = _BLOCK_KERNELS[name]
    if layout != "sequential":
        raise ValueError(
            f"kernel {name!r} does not take layout {layout!r}; "
            f"layout-aware kernels: {sorted(LAYOUT_AWARE_KERNELS)}")
    require_power_of_two(n, kernel.__name__)
    threads = max(1, n // per_thread)
    kwargs: tuple = ()
    if name in ("cr_pcr", "cr_rd"):
        m = (default_intermediate_size(n, name[3:])
             if intermediate_size is None else int(intermediate_size))
        require_power_of_two(m, f"run_{name} intermediate size")
        threads = max(threads, m)
        kwargs = (("intermediate_size", m),)
    elif intermediate_size is not None:
        raise ValueError(f"kernel {name!r} takes no intermediate size")
    if name == "cr":
        kwargs = (("conflict_free_timing", bool(conflict_free_timing)),)
    elif conflict_free_timing:
        raise ValueError(f"kernel {name!r} takes no conflict_free_timing")
    return LaunchPlan(kernel, int(n), threads, int(num_systems), device,
                      kwargs=kwargs)


def execute(plan: LaunchPlan, gmem,
            step_limit: int | None = None) -> LaunchResult:
    """Launch ``plan`` functionally over ``gmem``.

    The launch records no trace of its own: its result references the
    plan's estimator memo entry (filled by a charge-only run on a
    miss).  The result's ledger is a private copy of the entry's, made
    on first read; until then the cost model and the telemetry
    collector take the launch's price and ``sim.*``/``model.*`` writes
    from the entry.  An active fault plan perturbs both execution and
    counters, and ``step_limit`` truncates the schedule, so those
    launches trace for real.
    """
    memo = None
    if step_limit is None and _faults.active_plan() is None:
        memo = characterize(plan)
    return launch(plan.kernel, num_blocks=plan.num_blocks,
                  threads_per_block=plan.threads_per_block,
                  device=plan.device, step_limit=step_limit, memo=memo,
                  gmem=gmem, **dict(plan.kwargs))


def _run(plan: LaunchPlan, systems: TridiagonalSystems,
         step_limit: int | None = None) -> tuple[np.ndarray, LaunchResult]:
    gmem = plan.load(systems)
    result = execute(plan, gmem, step_limit)
    return gmem.solution()[:systems.num_systems], result


def _run_named(name: str, systems: TridiagonalSystems, device: DeviceSpec,
               step_limit: int | None = None, **plan_args
               ) -> tuple[np.ndarray, LaunchResult]:
    return _run(plan_launch(name, systems.n, systems.num_systems,
                            device=device, **plan_args),
                systems, step_limit)


def run_cr(systems: TridiagonalSystems, device: DeviceSpec = GTX280,
           conflict_free_timing: bool = False,
           step_limit: int | None = None
           ) -> tuple[np.ndarray, LaunchResult]:
    """Cyclic reduction on the simulated device (n/2 threads/block)."""
    return _run_named("cr", systems, device, step_limit,
                      conflict_free_timing=conflict_free_timing)


def run_pcr(systems: TridiagonalSystems, device: DeviceSpec = GTX280,
            step_limit: int | None = None
            ) -> tuple[np.ndarray, LaunchResult]:
    """Parallel cyclic reduction (n threads/block)."""
    return _run_named("pcr", systems, device, step_limit)


def run_pcr_pingpong(systems: TridiagonalSystems,
                     device: DeviceSpec = GTX280,
                     step_limit: int | None = None
                     ) -> tuple[np.ndarray, LaunchResult]:
    """Double-buffered PCR (the alternative SS4 argues against)."""
    return _run_named("pcr_pingpong", systems, device, step_limit)


def run_rd(systems: TridiagonalSystems, device: DeviceSpec = GTX280,
           step_limit: int | None = None
           ) -> tuple[np.ndarray, LaunchResult]:
    """Recursive doubling (n threads/block)."""
    return _run_named("rd", systems, device, step_limit)


def run_rd_full(systems: TridiagonalSystems, device: DeviceSpec = GTX280,
                step_limit: int | None = None
                ) -> tuple[np.ndarray, LaunchResult]:
    """RD without the two-row storage trick (9 stored entries) -- the
    control experiment for SS4's optimization."""
    return _run_named("rd_full", systems, device, step_limit)


def run_cr_pcr(systems: TridiagonalSystems,
               intermediate_size: int | None = None,
               device: DeviceSpec = GTX280,
               step_limit: int | None = None
               ) -> tuple[np.ndarray, LaunchResult]:
    """Hybrid CR+PCR.  Defaults to the paper-derived switch point."""
    return _run_named("cr_pcr", systems, device, step_limit,
                      intermediate_size=intermediate_size)


def run_cr_rd(systems: TridiagonalSystems,
              intermediate_size: int | None = None,
              device: DeviceSpec = GTX280,
              step_limit: int | None = None
              ) -> tuple[np.ndarray, LaunchResult]:
    """Hybrid CR+RD.  Defaults to the paper-derived switch point."""
    return _run_named("cr_rd", systems, device, step_limit,
                      intermediate_size=intermediate_size)


def run_thomas_batch(systems: TridiagonalSystems,
                     device: DeviceSpec = GTX280,
                     layout: str = "sequential",
                     step_limit: int | None = None
                     ) -> tuple[np.ndarray, LaunchResult]:
    """Per-thread Thomas over a batch of any size (one thread = one
    system, multi-block grid).

    ``layout`` selects the global-memory arrangement: ``"sequential"``
    (the paper's contiguous-system layout, uncoalesced here) or
    ``"interleaved"`` (coalesced).  Batches that do not tile the grid
    are padded with identity systems; the result is sliced back to the
    caller's ``num_systems`` rows.  The only registry kernel with no
    power-of-two requirement on ``n``.
    """
    return _run_named("thomas", systems, device, step_limit, layout=layout)


def run_thomas(systems: TridiagonalSystems, device: DeviceSpec = GTX280,
               step_limit: int | None = None, layout: str = "sequential"
               ) -> tuple[np.ndarray, LaunchResult]:
    """:func:`run_thomas_batch` in the registry runners' argument
    order."""
    return run_thomas_batch(systems, device=device, layout=layout,
                            step_limit=step_limit)


def run_cr_split(systems: TridiagonalSystems, device: DeviceSpec = GTX280,
                 step_limit: int | None = None
                 ) -> tuple[np.ndarray, LaunchResult]:
    """Split-storage (Goeddeke-style) conflict-free CR (footnote 1).

    Costs ~2x the in-place shared footprint in this layout, so it fits
    systems up to n = 256 on the GT200."""
    return _run_named("cr_split", systems, device, step_limit)


def run_cr_global(systems: TridiagonalSystems, device: DeviceSpec = GTX280,
                  step_limit: int | None = None
                  ) -> tuple[np.ndarray, LaunchResult]:
    """Global-memory-only cyclic reduction (the paper's fallback for
    systems too large for shared memory, ~3x slower, paper SS4)."""
    return _run_named("cr_global", systems, device, step_limit)


#: Kernel registry used by benchmarks and the analysis layer.  Values
#: are ``(runner, needs_intermediate_size)``.
KERNEL_RUNNERS = {
    "cr": (run_cr, False),
    "pcr": (run_pcr, False),
    "rd": (run_rd, False),
    "cr_pcr": (run_cr_pcr, True),
    "cr_rd": (run_cr_rd, True),
    "thomas": (run_thomas, False),
}

#: Kernels that accept a ``layout=`` argument (interleaved batches).
LAYOUT_AWARE_KERNELS = frozenset({"thomas"})


def run_kernel(name: str, systems: TridiagonalSystems,
               intermediate_size: int | None = None,
               device: DeviceSpec = GTX280,
               step_limit: int | None = None,
               layout: str | None = None,
               ) -> tuple[np.ndarray, LaunchResult]:
    """Run any of the registry solvers by name.

    ``layout`` (``"sequential"`` / ``"interleaved"``) is only accepted
    by layout-aware kernels; the fine-grained shared-memory kernels
    stage through shared memory and always read the sequential layout.
    """
    if name not in KERNEL_RUNNERS:
        raise ValueError(
            f"unknown kernel {name!r}; available: {sorted(KERNEL_RUNNERS)}")
    plan = plan_launch(name, systems.n, systems.num_systems,
                       intermediate_size=intermediate_size, device=device,
                       layout=layout)
    if not telemetry.enabled():
        # The disabled fast path: no span object, no collector, just
        # the launch itself (covered by the no-op overhead test).
        return _run(plan, systems, step_limit)
    with telemetry.span("kernel.run", solver=name, n=systems.n,
                        num_systems=systems.num_systems,
                        device=device.name) as sp:
        x, result = _run(plan, systems, step_limit)
        sp.set_attr("threads_per_block", result.threads_per_block)
        sp.set_attr("shared_bytes", result.shared_bytes)
        return x, result
