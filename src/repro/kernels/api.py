"""Drivers: run the instrumented kernels on a batch of systems.

:data:`KERNELS` holds each kernel's launch facts (kernel function per
layout, unknowns per thread, structural arguments), and
:func:`plan_launch` resolves a launch from them into a
:class:`LaunchPlan` -- the one place the launch rules (threads per
block, grid size, kernel arguments, batch layout) live.  The runner
:func:`run_kernel` and the analytic estimator
(:mod:`repro.gpusim.estimator`) both consume plans.

:func:`run_kernel` stages the systems in global memory, launches the
planned kernel on the simulated device, and returns
``(x, LaunchResult)`` -- the solution plus the architectural trace.
The paper's kernels have data-independent schedules, so a planned
launch does not run the kernel at all: it takes ``x`` from the
kernel's NumPy twin (:data:`KERNELS` names it, a
:data:`~repro.solvers.SOLVERS` key, bitwise equal to the kernel) and
references the plan's estimator memo entry, which supplies its ledger
(a private copy, made when first read), its price and its telemetry.
Under an active fault plan or a ``step_limit`` the kernel traces for
real.  Feed the result to
:func:`repro.gpusim.gt200.gt200_cost_model` (or any
:class:`~repro.gpusim.CostModel`) for modeled timings.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.gpusim import (GTX280, DeviceSpec, GlobalArray,
                          InterleavedSystemArrays, LaunchResult, launch)
from repro.gpusim import faults as _faults
from repro.gpusim.estimator import characterize
from repro.solvers.api import SOLVERS
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
from .thomas_kernel import (pad_identity, thomas_interleaved_kernel,
                            thomas_sequential_kernel)

@dataclass(frozen=True)
class KernelEntry:
    """One kernel's launch facts.

    ``kernels`` maps each batch layout the kernel reads to its kernel
    function; ``per_thread`` is the unknowns each thread owns (``None``
    for one whole system per thread); ``twin`` is the
    :data:`~repro.solvers.SOLVERS` key whose float32 result equals the
    kernel's bit for bit, on either layout; ``args`` names the
    structural arguments :func:`plan_launch` accepts for it.
    """

    kernels: dict[str, Callable]
    per_thread: int | None
    twin: str
    args: frozenset[str] = frozenset()

    @property
    def layouts(self) -> tuple[str, ...]:
        return tuple(self.kernels)


def _block_kernel(kernel: Callable, per_thread: int, twin: str,
                  *args: str) -> KernelEntry:
    return KernelEntry({"sequential": kernel}, per_thread, twin,
                       frozenset(args))


#: Every kernel a :class:`LaunchPlan` can name: the five paper solvers,
#: the ablation variants of §4 (each twinned with its base solver), and
#: per-thread Thomas.
KERNELS: dict[str, KernelEntry] = {
    "cr": _block_kernel(cr_kernel, 2, "cr", "conflict_free_timing"),
    "pcr": _block_kernel(pcr_kernel, 1, "pcr"),
    "rd": _block_kernel(rd_kernel, 1, "rd"),
    "cr_pcr": _block_kernel(cr_pcr_kernel, 2, "cr_pcr", "intermediate_size"),
    "cr_rd": _block_kernel(cr_rd_kernel, 2, "cr_rd", "intermediate_size"),
    "pcr_pingpong": _block_kernel(pcr_pingpong_kernel, 1, "pcr"),
    "cr_split": _block_kernel(cr_split_kernel, 2, "cr"),
    "cr_global": _block_kernel(cr_global_kernel, 2, "cr"),
    "rd_full": _block_kernel(rd_full_kernel, 1, "rd"),
    "thomas": KernelEntry({"sequential": thomas_sequential_kernel,
                           "interleaved": thomas_interleaved_kernel},
                          None, "thomas"),
}


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
    """Resolve kernel ``name`` (a :data:`KERNELS` entry) on
    ``num_systems`` systems of ``n``.

    The fine-grained kernels run one block per system with
    ``n / per_thread`` threads (hybrids: at least ``m``, defaulting to
    the paper-derived switch point).  The per-thread ``"thomas"`` kernel
    packs ``min(S, max_threads)`` systems into each block; its grid is
    padded with identity systems to whole blocks, which keeps the
    interleave stride a multiple of the 16-word transaction segment
    whenever more than one block exists.  A layout or structural
    argument the kernel's entry does not list is rejected.

    Plans are frozen, so each argument set resolves once and its plan
    is shared (an LRU of 1024 argument sets).
    """
    entry = KERNELS.get(name)
    if entry is None:
        raise ValueError(
            f"unknown kernel {name!r}; available: {sorted(KERNELS)}")
    layout = layout or "sequential"
    if layout not in entry.kernels:
        raise ValueError(
            f"kernel {name!r} does not take layout {layout!r}; "
            f"layout must be one of {entry.layouts}")
    if intermediate_size is not None \
            and "intermediate_size" not in entry.args:
        raise ValueError(f"kernel {name!r} takes no intermediate size")
    if conflict_free_timing and "conflict_free_timing" not in entry.args:
        raise ValueError(f"kernel {name!r} takes no conflict_free_timing")
    kernel = entry.kernels[layout]
    if entry.per_thread is None:
        if num_systems < 1:
            raise ValueError(
                f"{name} needs num_systems >= 1, got {num_systems}")
        threads = min(int(num_systems), device.max_threads_per_block)
        num_blocks = -(-int(num_systems) // threads)
        return LaunchPlan(kernel, int(n), threads, num_blocks, device,
                          layout=layout, systems_per_block=threads)
    require_power_of_two(n, kernel.__name__)
    threads = max(1, n // entry.per_thread)
    kwargs: tuple = ()
    if "intermediate_size" in entry.args:
        m = (default_intermediate_size(n, name[3:])
             if intermediate_size is None else int(intermediate_size))
        require_power_of_two(m, f"{name} intermediate size")
        threads = max(threads, m)
        kwargs = (("intermediate_size", m),)
    if "conflict_free_timing" in entry.args:
        kwargs = (("conflict_free_timing", bool(conflict_free_timing)),)
    return LaunchPlan(kernel, int(n), threads, int(num_systems), device,
                      kwargs=kwargs)


def execute(plan: LaunchPlan, gmem,
            step_limit: int | None = None) -> LaunchResult:
    """Trace ``plan`` over ``gmem``: the kernel runs on the simulator
    and records its own ledger (``step_limit`` truncates the
    schedule)."""
    return launch(plan.kernel, num_blocks=plan.num_blocks,
                  threads_per_block=plan.threads_per_block,
                  device=plan.device, step_limit=step_limit, gmem=gmem,
                  **dict(plan.kwargs))


def _run(plan: LaunchPlan, twin: str, systems: TridiagonalSystems,
         step_limit: int | None = None) -> tuple[np.ndarray, LaunchResult]:
    if step_limit is not None or _faults.active_plan() is not None:
        # A fault plan perturbs execution and counters, and a step
        # limit truncates the schedule: those launches trace.
        gmem = plan.load(systems)
        result = execute(plan, gmem, step_limit)
        return gmem.solution()[:systems.num_systems], result
    # Planned: the ledger, price and telemetry come from the plan's
    # memo entry (filled by a charge-only run on a miss), ``x`` from
    # the twin on a float32 copy.  The twin runs warning-free, as the
    # kernel would: RD overflows to inf/NaN by design (§5.4).
    entry = characterize(plan)
    col = telemetry.get_collector()
    with (nullcontext() if col is None else
          col.launch(plan.kernel.__name__, plan.num_blocks,
                     plan.threads_per_block, plan.device.name)) as record:
        with np.errstate(all="ignore"):
            x = SOLVERS[twin](systems.astype(np.float32),
                              **dict(plan.kwargs))
        result = LaunchResult(
            outputs=None, ledger=None, num_blocks=plan.num_blocks,
            threads_per_block=plan.threads_per_block,
            shared_bytes=entry.shared_bytes, device=plan.device,
            memo=entry)
        if record is not None:
            record.result = result
    return x, result


def run_kernel(name: str, systems: TridiagonalSystems, *,
               device: DeviceSpec = GTX280,
               step_limit: int | None = None,
               **plan_args) -> tuple[np.ndarray, LaunchResult]:
    """Run kernel ``name`` on ``systems``: the one runner.

    ``plan_args`` (``intermediate_size``, ``layout``,
    ``conflict_free_timing``) go to :func:`plan_launch`, which rejects
    any the kernel's :data:`KERNELS` entry does not take.  Returns
    ``(x, LaunchResult)``.
    """
    plan = plan_launch(name, systems.n, systems.num_systems, device=device,
                       **plan_args)
    twin = KERNELS[name].twin
    if not telemetry.enabled():
        # The disabled fast path: no span object, no collector, just
        # the launch itself (covered by the no-op overhead test).
        return _run(plan, twin, systems, step_limit)
    with telemetry.span("kernel.run", solver=name, n=systems.n,
                        num_systems=systems.num_systems,
                        device=device.name) as sp:
        x, result = _run(plan, twin, systems, step_limit)
        sp.set_attr("threads_per_block", result.threads_per_block)
        sp.set_attr("shared_bytes", result.shared_bytes)
        return x, result
