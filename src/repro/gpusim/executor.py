"""Grid launch: run a kernel over all blocks and collect the trace.

The simulator executes all blocks of a grid simultaneously (they are
data-independent in the paper's workload: one tridiagonal system per
block), then the cost model folds per-block costs into a grid-level
time using the device's occupancy rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.telemetry import callbacks as _cb
from repro.telemetry import collector as _telemetry

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
    """

    outputs: Any
    ledger: CounterLedger
    num_blocks: int
    threads_per_block: int
    shared_bytes: int
    device: DeviceSpec

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
           ledger: CounterLedger | None = None,
           **kernel_args) -> LaunchResult:
    """Simulate ``kernel(ctx, **kernel_args)`` over a grid.

    The kernel receives a fresh :class:`BlockContext`; its return value
    is passed through as ``outputs``.  ``step_limit`` truncates
    execution after that many algorithmic steps (the paper's
    differential-timing probe; outputs are then partial).

    ``engine`` selects the execution engine (``"vectorized"`` default,
    ``"reference"`` for the per-lane oracle, or an instance; see
    :mod:`~repro.gpusim.engine`).

    ``ledger`` is a precomputed ledger for this launch (a planned
    launch's private copy from :mod:`~repro.gpusim.estimator`): the
    kernel then runs functionally with ``record_trace=False`` and the
    result carries that ledger.  Without it the launch records its own
    trace.

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
                col = _telemetry.get_collector()
                if col is not None:
                    col.metrics.counter(
                        "sim.launch_retries",
                        "transient launch failures retried").inc(
                            kernel=kernel_name)
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
                            kernel_args, engine=engine, ledger=ledger)
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
                 kernel_args, engine=None, ledger=None) -> LaunchResult:
    """One successful launch attempt (the pre-fault-injection body)."""
    ctx = BlockContext(device, num_blocks, threads_per_block, dtype=dtype,
                       check_contiguous_active=check_contiguous_active,
                       step_limit=step_limit,
                       record_trace=ledger is None,
                       engine=engine)
    _cb.emit(_cb.DOMAIN_LAUNCH, _cb.SITE_BEGIN, kernel=kernel_name,
             num_blocks=num_blocks, threads_per_block=threads_per_block,
             device=device.name)
    result = None
    try:
        try:
            outputs = kernel(ctx, **kernel_args)
        except StopKernel:
            outputs = None
        result = LaunchResult(
            outputs=outputs,
            ledger=ctx.ledger if ledger is None else ledger,
            num_blocks=num_blocks,
            threads_per_block=threads_per_block,
            shared_bytes=ctx.shared_space.bytes_allocated,
            device=device,
        )
        if plan is not None:
            detected = plan.corrupt_global_arrays(
                _faults.find_global_arrays(kernel_args), kernel=kernel_name)
            if detected:
                ev = detected[0]
                raise DataCorruptionError(
                    f"ECC caught a DRAM upset after {kernel_name} "
                    f"(word {ev.detail['index']}, bit {ev.detail['bit']})")
        return result
    finally:
        # Delivered even when the kernel raises (result stays None),
        # so subscribers never see an unbalanced begin.
        _cb.emit(_cb.DOMAIN_LAUNCH, _cb.SITE_END, kernel=kernel_name,
                 result=result)
