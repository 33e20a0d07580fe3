"""Layout autotuner: solver x layout, picked jointly from the cost model.

The paper's evaluation fixes the sequential batch layout and compares
solvers; production batched libraries additionally choose a *layout*
(cuSPARSE ships both ``gtsv2StridedBatch`` and ``gtsvInterleavedBatch``
precisely because neither dominates).  The trade is batch-shaped:

* many small systems -> the per-thread Thomas kernel on the
  interleaved layout (coalesced, one thread per system, no
  shared-memory staging);
* one (or few) large systems -> the paper's fine-grained hybrids on
  the sequential layout (a block per system, shared-memory solve).

Instead of hard-coding that fold line, :func:`choose_layout` prices
every candidate ``(method, layout)`` for the batch shape with the
analytic estimator (:func:`repro.gpusim.estimate_ms`: the memoized
block ledger priced over the plan's grid, no functional execution)
and ranks them, with per-candidate infeasibility reasons
(power-of-two requirements, shared-memory overflow) preserved in the
ranking.  The estimate equals the simulate-then-cost path bitwise
(``tests/gpusim/test_estimator.py``; the verify grid re-checks the
ledgers on its own draws).  :func:`repro.solvers.api.solve`
(``method="auto"`` with a ``device=``) and the serve scheduler's
admission estimates consume this to pick solver and layout jointly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim import DeviceSpec, GTX280, KernelError, estimate_ms

__all__ = ["CANDIDATES", "RankedCandidate", "LayoutChoice",
           "choose_layout"]

#: The solver x layout pairs the autotuner arbitrates between: the
#: per-thread Thomas kernel in both layouts plus the paper's fine-grained
#: methods (sequential only -- they stage through shared memory).
CANDIDATES: tuple[tuple[str, str], ...] = (
    ("thomas", "interleaved"),
    ("thomas", "sequential"),
    ("pcr", "sequential"),
    ("cr_pcr", "sequential"),
)


@dataclass
class RankedCandidate:
    """One candidate's predicted cost (or why it cannot run)."""

    method: str
    layout: str
    predicted_ms: float | None
    reason: str = ""


@dataclass
class LayoutChoice:
    """The autotuner's verdict for one batch shape."""

    method: str
    layout: str
    predicted_ms: float
    ranking: list[RankedCandidate] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"choose_layout -> {self.method}/{self.layout} "
                 f"({self.predicted_ms:.4f} ms)"]
        for r in self.ranking:
            cost = (f"{r.predicted_ms:.4f} ms" if r.predicted_ms is not None
                    else f"infeasible: {r.reason}")
            lines.append(f"  {r.method}/{r.layout}: {cost}")
        return "\n".join(lines)


def choose_layout(num_systems: int, n: int, *,
                  device: DeviceSpec = GTX280) -> LayoutChoice:
    """Pick the cheapest feasible ``(method, layout)`` for a batch shape.

    Every candidate appears in the returned ranking; infeasible ones
    carry the reason (power-of-two requirement, shared-memory
    overflow) instead of a cost, so a placement decision is always
    explainable.
    """
    if num_systems < 1:
        raise ValueError(f"num_systems must be >= 1, got {num_systems}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ranking: list[RankedCandidate] = []
    for method, layout in CANDIDATES:
        try:
            ms = estimate_ms(method, n, num_systems, device=device,
                             layout=layout)
            ranking.append(RankedCandidate(method, layout, ms))
        except (KernelError, ValueError) as exc:
            ranking.append(RankedCandidate(method, layout, None,
                                           reason=str(exc)))
    if all(r.predicted_ms is None for r in ranking):
        detail = "; ".join(f"{r.method}/{r.layout}: {r.reason}"
                           for r in ranking)
        raise ValueError(f"no feasible solver/layout candidate ({detail})")
    ranking.sort(key=lambda r: (r.predicted_ms is None,
                                r.predicted_ms or 0.0))
    best = ranking[0]
    return LayoutChoice(method=best.method, layout=best.layout,
                        predicted_ms=best.predicted_ms, ranking=ranking)
