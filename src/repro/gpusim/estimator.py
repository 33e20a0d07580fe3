"""Analytical fast-path cost estimator, and the one plan memo.

The simulator's cost charges are *data-independent*: every counter in
a :class:`~repro.gpusim.counters.CounterLedger` is a function of the
access patterns a kernel issues, never of the float values flowing
through them.  A launch's ledger is therefore a function of its
:class:`~repro.kernels.api.LaunchPlan` alone.  :func:`characterize`
computes it once per plan -- the kernel runs on a ``functional=False``
:class:`~repro.gpusim.context.BlockContext` whose loads return zeros
and whose stores are dropped, so only index validation and counter
charging execute -- and the estimates price it per grid and device.

Guarantees (enforced by ``tests/gpusim/test_estimator.py``):

- :func:`analytic_launch` returns a ledger bitwise-identical to a
  traced functional :func:`~repro.gpusim.executor.launch` of the same
  plan (any input data, either engine).
- :func:`estimate_report` applies the same float arithmetic as
  :meth:`~repro.gpusim.costmodel.CostModel.report`, so the analytic
  and simulate-then-cost paths agree on every modeled millisecond.
- No telemetry is emitted and no fault plan is consulted, so repeated
  calls are deterministic and side-effect-free.

The memo maps each one-block plan
(:attr:`~repro.kernels.api.LaunchPlan.block`, which carries the
:class:`~repro.gpusim.device.DeviceSpec` itself) to a
:class:`PlanEntry`: the plan's whole characterization.  It is the
one-block charge-only :class:`LaunchResult` (ledger, shared bytes,
threads) plus what that ledger implies, derived on first use -- the
grid :class:`TimingReport` per cost model and block count, and the
telemetry writes a launch and its report make.  A planned functional
launch references its entry (:attr:`LaunchResult.memo`) and is priced
and recorded from it until its ledger is read; the estimates read the
same prices.

:func:`closed_form_counters` additionally exposes the paper's Table 1
closed forms that the simulated ledgers reproduce *exactly* (not just
to leading order): CR's ``2 log2 n - 1`` steps, ``28n - 38`` shared
words and ``10 * max(1, n/32)`` global transactions (160 at n = 512),
and the PCR/RD step counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .context import BlockContext
from .costmodel import CostModel, TimingReport
from .device import DeviceSpec, GTX280
from .executor import LaunchResult

__all__ = ["PlanEntry", "analytic_launch", "characterize",
           "estimate_report", "estimate_ms", "closed_form_counters",
           "clear_estimator_cache"]


@dataclass(eq=False)
class PlanEntry(LaunchResult):
    """One plan's memo entry: its one-block charge-only launch, plus
    everything derived from that ledger, each computed once.

    :meth:`derive` holds the derived values under keys their users
    choose: the cost model keys the grid report by ``("report", params,
    num_blocks)`` (:meth:`CostModel.plan_report
    <repro.gpusim.costmodel.CostModel.plan_report>`) and its resolved
    ``model.*`` writes by ``("model", params, num_blocks, solver)``,
    :func:`estimate_ms` its total by ``("ms", params, num_blocks)``;
    the telemetry collector keys a launch's resolved ``sim.*`` writes
    by ``("sim", kernel)``.  Entries are shared: treat every derived
    value as read-only.
    """

    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def derive(self, key: Any, build: Callable[[], Any]) -> Any:
        """``build()``'s value for ``key``, computed on the first call."""
        hit = self._derived.get(key)
        if hit is None:
            hit = self._derived[key] = build()
        return hit


#: One-block LaunchPlan -> its PlanEntry.
_MEMO: dict = {}


def clear_estimator_cache() -> None:
    """Drop all memo entries (for tests)."""
    _MEMO.clear()


def characterize(plan) -> PlanEntry:
    """The memo entry of ``plan``: its one-block form's charge-only
    launch (a :class:`LaunchResult` with ``num_blocks=1``).

    The entry is shared: callers must treat it as read-only and copy
    the ledger before handing it out.
    """
    key = plan.block
    hit = _MEMO.get(key)
    if hit is None:
        ctx = BlockContext(plan.device, 1, plan.threads_per_block,
                           functional=False)
        with np.errstate(all="ignore"):
            plan.kernel(ctx, gmem=plan.stub(), **dict(plan.kwargs))
        hit = _MEMO[key] = PlanEntry(
            outputs=None, ledger=ctx.ledger, num_blocks=1,
            threads_per_block=plan.threads_per_block,
            shared_bytes=ctx.shared_space.bytes_allocated,
            device=plan.device)
    return hit


#: kernels.api.plan_launch, bound on first use (kernels import gpusim).
_plan_launch = None


def _plan(method: str, n: int, num_systems: int, intermediate_size,
          device: DeviceSpec, layout: str):
    global _plan_launch
    if _plan_launch is None:
        from repro.kernels.api import plan_launch as _plan_launch
    return _plan_launch(method, n, num_systems,
                        intermediate_size=intermediate_size, device=device,
                        layout=layout)


def analytic_launch(method: str, n: int, *,
                    intermediate_size: int | None = None,
                    device: DeviceSpec = GTX280,
                    num_systems: int | None = None,
                    layout: str = "sequential") -> LaunchResult:
    """Trace ``method`` on an ``n``-system analytically.

    Returns the memoized one-block :class:`LaunchResult` whose ledger,
    ``shared_bytes`` and ``threads_per_block`` are bitwise-identical
    to a real launch's (per-block charges do not depend on the block
    count or the data).  Callers must treat it as read-only.

    ``num_systems`` and ``layout`` only matter for the per-thread
    ``"thomas"`` kernel, whose block shape (and interleave stride)
    depend on the batch size; the fine-grained methods run one block
    per system regardless.
    """
    return characterize(_plan(method, n, 1 if num_systems is None
                              else int(num_systems), intermediate_size,
                              device, layout))


def estimate_report(method: str, n: int, num_systems: int, *,
                    intermediate_size: int | None = None,
                    device: DeviceSpec = GTX280,
                    cost_model: CostModel | None = None,
                    layout: str = "sequential") -> TimingReport:
    """Analytic :class:`TimingReport` for a ``num_systems x n`` grid:
    the plan's memoized price (:meth:`CostModel.plan_report`, the one
    a planned launch of it is charged), without telemetry."""
    cost_model, entry, blocks = _grid(method, n, num_systems,
                                      intermediate_size, device, cost_model,
                                      layout)
    return cost_model.plan_report(entry, blocks).copy()


def _grid(method, n, num_systems, intermediate_size, device, cost_model,
          layout) -> tuple[CostModel, PlanEntry, int]:
    """``(cost model, memo entry, block count)`` of a grid."""
    if cost_model is None:
        from .gt200 import gt200_cost_model
        cost_model = gt200_cost_model()
    plan = _plan(method, n, num_systems, intermediate_size, device, layout)
    return cost_model, characterize(plan), plan.num_blocks


def estimate_ms(method: str, n: int, num_systems: int, *,
                intermediate_size: int | None = None,
                device: DeviceSpec = GTX280,
                cost_model: CostModel | None = None,
                layout: str = "sequential") -> float:
    """Modeled solver milliseconds for a grid, via the analytic path:
    the memo entry keeps its grid report's total, so a repeated shape
    is priced by a dict read."""
    cost_model, entry, blocks = _grid(method, n, num_systems,
                                      intermediate_size, device, cost_model,
                                      layout)
    return entry.derive(("ms", cost_model.params, blocks),
                        lambda: cost_model.plan_report(entry, blocks).total_ms)


def closed_form_counters(method: str, n: int) -> dict[str, int]:
    """Paper closed forms the simulated ledgers match *exactly*.

    Unlike :mod:`repro.analysis.complexity` (leading-order Table 1
    rows validated by ratio bands), these are the exact totals of the
    instrumented kernels, suitable for equality assertions:

    - ``cr``: ``steps = 2 log2 n - 1``, ``shared_words = 28n - 38``
      (solver + staging traffic), ``global_transactions =
      10 * max(1, n // 32)`` -- 160 at n = 512, the paper's coalesced
      staging cost.
    - ``pcr``: ``steps = log2 n``.
    - ``rd``: ``steps = log2 n + 2`` (setup + log2 n scan + eval).
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"size must be a power of two >= 2, got {n}")
    L = n.bit_length() - 1
    if method == "cr":
        return {"steps": 2 * L - 1,
                "shared_words": 28 * n - 38,
                "global_transactions": 10 * max(1, n // 32),
                "global_words": 5 * n}
    if method == "pcr":
        return {"steps": L, "global_words": 5 * n}
    if method == "rd":
        return {"steps": L + 2, "global_words": 5 * n}
    raise ValueError(f"no closed form for {method!r}")
