"""Automatic performance advisor -- the paper's future work item (3).

    "Instead of manually measuring the each factor's impact on overall
    performance as we have done, we see a future need to develop
    automatic methodologies and tools to perform performance evaluation
    and give programmers prioritized tasks for optimizations." (§5.3.6)

Given a kernel trace and a cost model, the advisor decomposes total
time into the contribution of each architectural factor, estimates the
*achievable saving* of the standard remedy for each (what-if
re-costing of the same trace), and emits a prioritized list of
recommendations.  The what-if analyses are exact within the model
because the model is linear in the counters:

- **bank conflicts** -> re-cost with every access at degree 1
  (remedy: padding / separate even-odd storage, cf. Göddeke);
- **exposed latency** -> re-cost at full residency (remedy: more
  resident blocks/warps, smaller shared footprint);
- **step overhead** -> re-cost with the minimum step count of a
  PCR-like schedule (remedy: fewer, wider steps -- the hybrids);
- **divisions** -> re-cost with divisions at multiply cost (remedy:
  reciprocal reuse);
- **uncoalesced global access** -> re-cost at words/16 transactions
  (remedy: layout change / staging through shared memory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpusim import CostModel, LaunchResult, gt200_cost_model
from repro.gpusim.counters import CounterLedger, PhaseCounters


@dataclass
class Recommendation:
    """One prioritized optimization suggestion."""

    factor: str
    saving_ms: float
    saving_fraction: float
    remedy: str

    def __str__(self) -> str:
        return (f"[{self.saving_fraction:6.1%}] {self.factor}: "
                f"{self.remedy} (saves ~{self.saving_ms:.4f} ms)")


def _recost(result: LaunchResult, cm: CostModel,
            mutate) -> float:
    """Total time with each phase's counters passed through ``mutate``."""
    ledger = CounterLedger({name: mutate(pc)
                            for name, pc in result.ledger.phases.items()})
    return cm.grid_report(result.device, result.num_blocks,
                          result.shared_bytes, result.threads_per_block,
                          ledger).total_ms


def analyze(result: LaunchResult, cost_model: CostModel | None = None,
            min_saving_fraction: float = 0.02) -> list[Recommendation]:
    """Prioritized optimization recommendations for one launch."""
    cm = cost_model or gt200_cost_model()
    baseline = _recost(result, cm, lambda pc: pc)
    recs: list[Recommendation] = []

    def consider(factor: str, remedy: str, mutate) -> None:
        t = _recost(result, cm, mutate)
        saving = baseline - t
        if saving / baseline >= min_saving_fraction:
            recs.append(Recommendation(factor, saving, saving / baseline,
                                       remedy))

    # --- bank conflicts: all shared accesses at degree 1 --------------
    def no_conflicts(pc: PhaseCounters) -> PhaseCounters:
        out = pc.copy()
        out.shared_cycles = out.shared_instructions
        if out.shared_instructions:
            degree = pc.shared_cycles / pc.shared_instructions
            out.latency_units = pc.latency_units / max(1.0, degree)
        return out

    consider(
        "shared-memory bank conflicts",
        "pad arrays or store even/odd elements separately so strided "
        "accesses map to distinct banks",
        no_conflicts)

    # --- exposed latency: pretend residency hides everything ----------
    def hidden_latency(pc: PhaseCounters) -> PhaseCounters:
        out = pc.copy()
        out.latency_units = 0.0
        out.global_latency_units = 0.0
        return out

    consider(
        "exposed memory latency (low occupancy / few active warps)",
        "increase resident blocks per SM (smaller shared footprint) or "
        "keep more warps active per step (switch to a PCR/RD-style "
        "full-front schedule)",
        hidden_latency)

    # --- step/control overhead: minimum-step schedule ------------------
    total_steps = result.ledger.total().steps
    # A step-efficient schedule needs ~log2 of the widest front.
    min_steps = max(1, math.ceil(math.log2(
        max(2, result.threads_per_block))))

    def fewer_steps(pc: PhaseCounters) -> PhaseCounters:
        out = pc.copy()
        if total_steps:
            f = min(1.0, min_steps / total_steps)
            out.steps = pc.steps * f
            out.syncs = pc.syncs * f
        return out

    consider(
        "per-step synchronization/control overhead",
        f"reduce algorithmic steps ({total_steps} now, ~{min_steps} "
        f"achievable): switch to a step-efficient algorithm for the "
        f"low-parallelism stages (the paper's hybrid idea)",
        fewer_steps)

    # --- divisions ------------------------------------------------------
    def no_divs(pc: PhaseCounters) -> PhaseCounters:
        out = pc.copy()
        out.divs = 0
        return out

    consider(
        "division throughput",
        "hoist reciprocals out of inner updates and reuse them",
        no_divs)

    # --- uncoalesced global traffic --------------------------------------
    words_per_seg = (result.device.coalesce_segment_bytes
                     // result.device.bank_width_bytes)

    def coalesced(pc: PhaseCounters) -> PhaseCounters:
        out = pc.copy()
        ideal = -(-pc.global_words // words_per_seg)
        out.global_transactions = min(pc.global_transactions, ideal)
        out.global_latency_units = 0.0
        return out

    consider(
        "uncoalesced global memory access",
        "restructure the data layout (interleave systems) or stage "
        "through shared memory so each half-warp touches one segment",
        coalesced)

    recs.sort(key=lambda r: r.saving_ms, reverse=True)
    return recs


def report(result: LaunchResult, cost_model: CostModel | None = None
           ) -> str:
    """Human-readable advisor output."""
    cm = cost_model or gt200_cost_model()
    recs = analyze(result, cm)
    baseline = _recost(result, cm, lambda pc: pc)
    lines = [f"total modeled time: {baseline:.4f} ms",
             "prioritized optimizations:"]
    if not recs:
        lines.append("  (nothing above the reporting threshold -- the "
                     "kernel is close to its model optimum)")
    for r in recs:
        lines.append("  " + str(r))
    return "\n".join(lines)
