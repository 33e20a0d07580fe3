"""Bank-conflict analysis of cyclic reduction (§5.3.1, Fig 9).

Compares the in-place CR kernel against the stride-one-costed variant
("no bank conflicts" -- functionally identical here, unlike the paper's
deliberately-broken timing probe) step by step through the forward
reduction phase, reporting the n-way conflict degree and the slowdown
factor of each step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim import GTX280, CostModel, DeviceSpec, gt200_cost_model
from repro.kernels.api import run_kernel
from repro.solvers.systems import TridiagonalSystems

PHASE_FORWARD = "forward_reduction"


@dataclass
class ConflictStep:
    """One forward-reduction step of Fig 9."""

    index: int
    active_threads: int
    warps: int
    conflict_degree: float
    with_conflicts_ms: float
    without_conflicts_ms: float

    @property
    def penalty(self) -> float:
        """Slowdown factor (the 1.7x ... 4.8x annotations of Fig 9)."""
        if self.without_conflicts_ms <= 0:
            return 1.0
        return self.with_conflicts_ms / self.without_conflicts_ms


def forward_reduction_conflicts(systems: TridiagonalSystems, *,
                                device: DeviceSpec = GTX280,
                                cost_model: CostModel | None = None
                                ) -> list[ConflictStep]:
    """Fig 9's dataset: per-step times with and without bank conflicts."""
    cm = cost_model or gt200_cost_model()
    _x, with_c = run_kernel("cr", systems, device=device)
    _x, without_c = run_kernel("cr", systems, device=device,
                               conflict_free_timing=True)

    rep_with = cm.report(with_c)
    rep_without = cm.report(without_c)
    times_with = rep_with.steps_ms(PHASE_FORWARD)
    times_without = rep_without.steps_ms(PHASE_FORWARD)
    step_counters = with_c.ledger.steps_in_phase(PHASE_FORWARD)

    out = []
    for i, (pc, tw, to) in enumerate(zip(step_counters, times_with,
                                         times_without)):
        out.append(ConflictStep(
            index=i,
            active_threads=pc.max_active_threads,
            warps=device.warps(pc.max_active_threads),
            conflict_degree=pc.conflict_degree,
            with_conflicts_ms=tw,
            without_conflicts_ms=to,
        ))
    return out


def overall_conflict_penalty(steps: list[ConflictStep]) -> float:
    """Whole-phase slowdown caused by bank conflicts."""
    tw = sum(s.with_conflicts_ms for s in steps)
    to = sum(s.without_conflicts_ms for s in steps)
    return tw / to if to > 0 else 1.0
