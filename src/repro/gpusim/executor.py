"""Grid launch: run a kernel over all blocks and collect the trace.

The simulator executes all blocks of a grid simultaneously (they are
data-independent in the paper's workload: one tridiagonal system per
block), then the cost model folds per-block costs into a grid-level
time using the device's occupancy rules.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.telemetry.metrics import emit

from . import faults as _faults
from .context import BlockContext, StopKernel
from .counters import CounterLedger
from .device import DeviceSpec, GTX280
from .faults import DataCorruptionError, KernelLaunchError


@dataclass
class LaunchResult:
    """Outcome of one simulated kernel launch.

    Attributes
    ----------
    outputs:
        Whatever the kernel returned (typically solution arrays).
    ledger:
        Per-block counters, attributed to phases and steps.
    num_blocks, threads_per_block:
        Launch configuration.
    shared_bytes:
        Static shared-memory footprint per block, as allocated.
    device:
        The device the launch was simulated on.
    memo:
        A planned launch's estimator memo entry
        (:class:`~repro.gpusim.estimator.PlanEntry`), set by
        :func:`repro.kernels.api.run_kernel`, which builds the result
        without running the kernel.  Built with ``ledger=None``, the
        result then reads its ledger as a private copy of the entry's,
        made on first access; until then the cost model and the
        collector price and record the launch from the entry
        (:meth:`memo_entry`).
    """

    outputs: Any
    ledger: CounterLedger
    num_blocks: int
    threads_per_block: int
    shared_bytes: int
    device: DeviceSpec
    memo: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ledger is None and self.memo is not None:
            del self.ledger                  # copied on first read

    def __getattr__(self, name: str):
        # Reached only for attributes missing from the instance: the
        # unread ledger of a planned launch.
        if name != "ledger" or self.memo is None:
            raise AttributeError(name)
        ledger = self.ledger = self.memo.ledger.copy()
        return ledger

    def memo_entry(self):
        """The memo entry that still stands for this launch, or
        ``None``: set while a planned launch's ledger is unread.  Once
        read, the ledger is the caller's to change, so it alone is
        priced and recorded."""
        return None if "ledger" in self.__dict__ else self.memo

    @property
    def blocks_per_sm(self) -> int:
        return self.device.blocks_per_sm(self.shared_bytes,
                                         self.threads_per_block)

    def occupancy(self) -> dict:
        from .device import occupancy_report
        return occupancy_report(self.device, self.shared_bytes,
                                self.threads_per_block)


def launch(kernel: Callable[..., Any], *, num_blocks: int,
           threads_per_block: int, device: DeviceSpec = GTX280,
           dtype=np.float32, check_contiguous_active: bool = True,
           step_limit: int | None = None, max_launch_attempts: int = 3,
           retry_backoff_s: float = 0.0, engine=None,
           **kernel_args) -> LaunchResult:
    """Simulate ``kernel(ctx, **kernel_args)`` over a grid.

    The kernel receives a fresh :class:`BlockContext`; its return value
    is passed through as ``outputs``.  ``step_limit`` truncates
    execution after that many algorithmic steps (the paper's
    differential-timing probe; outputs are then partial).

    ``engine`` selects the execution engine (``"vectorized"`` default,
    ``"reference"`` for the per-lane oracle, or an instance; see
    :mod:`~repro.gpusim.engine`).

    Under an active :class:`~repro.gpusim.faults.FaultPlan` a launch
    attempt may fail before any block runs: transient failures are
    retried up to ``max_launch_attempts`` times with bounded
    exponential backoff (``retry_backoff_s`` base; 0 skips the sleep),
    then surface as :class:`~repro.gpusim.faults.KernelLaunchError`.
    Fatal failures raise immediately; ECC-detected DRAM upsets at
    kernel completion raise
    :class:`~repro.gpusim.faults.DataCorruptionError`.
    """
    plan = _faults.active_plan()
    kernel_name = getattr(kernel, "__name__", str(kernel))
    attempts = max(1, int(max_launch_attempts))
    for attempt in range(attempts):
        if plan is not None:
            fate = plan.draw_launch_fault(kernel_name)
            if fate == "fatal":
                raise KernelLaunchError(
                    f"launch of {kernel_name} failed (injected fatal fault)")
            if fate == "transient":
                emit("sim.launch_retries", kernel=kernel_name)
                if attempt == attempts - 1:
                    raise KernelLaunchError(
                        f"launch of {kernel_name} still failing after "
                        f"{attempts} attempts (injected transient faults)")
                _faults.sleep_backoff(attempt, retry_backoff_s,
                                      rng=plan.rng)
                continue
        return _launch_once(kernel, kernel_name, num_blocks,
                            threads_per_block, device, dtype,
                            check_contiguous_active, step_limit, plan,
                            kernel_args, engine=engine)
    raise AssertionError("unreachable")  # pragma: no cover


def _reference_execute(kernel: Callable[..., Any], *, num_blocks: int,
                       threads_per_block: int, device: DeviceSpec = GTX280,
                       dtype=np.float32, check_contiguous_active: bool = True,
                       step_limit: int | None = None,
                       **kernel_args) -> LaunchResult:
    """Run ``kernel`` on the per-lane :class:`~repro.gpusim.engine.ReferenceEngine`.

    The property-test oracle for the vectorized engine: per-lane,
    per-block Python loops with no pattern memoization (every run
    records its trace from scratch).  Ledgers, step records and
    float32 outputs must be bitwise-identical to
    :func:`launch` on the same arguments
    (``tests/gpusim/test_vectorized_engine.py``).
    """
    return launch(kernel, num_blocks=num_blocks,
                  threads_per_block=threads_per_block, device=device,
                  dtype=dtype, check_contiguous_active=check_contiguous_active,
                  step_limit=step_limit, engine="reference", **kernel_args)


def _launch_once(kernel, kernel_name, num_blocks, threads_per_block, device,
                 dtype, check_contiguous_active, step_limit, plan,
                 kernel_args, engine=None) -> LaunchResult:
    """One successful launch attempt (the pre-fault-injection body),
    reported to the active telemetry collector, if any."""
    ctx = BlockContext(device, num_blocks, threads_per_block, dtype=dtype,
                       check_contiguous_active=check_contiguous_active,
                       step_limit=step_limit, engine=engine)
    # Looked up lazily, as metrics.emit does: telemetry imports gpusim.
    from repro.telemetry.collector import get_collector
    col = get_collector()
    with (nullcontext() if col is None else
          col.launch(kernel_name, num_blocks, threads_per_block,
                     device.name)) as record:
        try:
            outputs = kernel(ctx, **kernel_args)
        except StopKernel:
            outputs = None
        result = LaunchResult(
            outputs=outputs,
            ledger=ctx.ledger,
            num_blocks=num_blocks,
            threads_per_block=threads_per_block,
            shared_bytes=ctx.shared_space.bytes_allocated,
            device=device,
        )
        if record is not None:
            record.result = result
        if plan is not None:
            detected = plan.corrupt_global_arrays(
                _faults.find_global_arrays(kernel_args), kernel=kernel_name)
            if detected:
                ev = detected[0]
                raise DataCorruptionError(
                    f"ECC caught a DRAM upset after {kernel_name} "
                    f"(word {ev.detail['index']}, bit {ev.detail['bit']})")
        return result
