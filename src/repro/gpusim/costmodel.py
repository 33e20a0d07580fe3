"""Cost model: architectural counters -> milliseconds.

The model is deliberately *linear in the counters*: each counter class
(shared access slots, global transactions/words, warp issues, divisions,
syncs, steps) has a time coefficient, and a phase's block-level time is
the dot product.  Grid-level time then applies the occupancy/wave rule.

Linearity is what makes the model honest: the coefficients are fitted
once against the paper's published 512x512 phase timings (see
:mod:`repro.gpusim.gt200`), and every other configuration -- other
problem sizes, other algorithms, other switch points -- is a pure
prediction from counters the simulator measures exactly.

Time components per phase (block level)::

    t_global  = transactions * c_transaction + words * c_global_word
    t_shared  = shared_cycles * c_shared_cycle
    t_compute = warp_instructions * c_warp_issue + divs * c_div
                + syncs * c_sync + steps * c_step

Grid level::

    conc   = blocks_per_sm(shared_bytes, threads)       # occupancy
    waves  = ceil(num_blocks / (num_sms * conc))
    eff    = 1 - latency_hiding * (1 - 1/conc)           # overlap gain
    t_grid = waves * conc * eff * t_block + launch_overhead
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.telemetry import collector as _telemetry
from repro.telemetry.metrics import resolve

from .counters import CounterLedger, PhaseCounters
from .device import DeviceSpec
from .executor import LaunchResult


@dataclass(frozen=True)
class CostModelParams:
    """Time coefficients, all in nanoseconds per counted unit."""

    shared_cycle_ns: float
    shared_latency_ns: float
    global_transaction_ns: float
    global_word_ns: float
    warp_issue_ns: float
    div_ns: float
    sync_ns: float
    step_ns: float
    #: Exposed DRAM latency per serialized global transaction when too
    #: few warps are resident.  Not part of the NNLS fit (the five
    #: staged kernels never expose it); set from GT200's ~500-cycle
    #: DRAM latency and validated against the paper's "roughly 3x"
    #: global-memory-only penalty (§4).
    global_latency_ns: float = 60.0
    launch_overhead_ns: float = 4000.0
    #: Fraction of a resident block's time hidden behind its SM
    #: co-residents (0 = no overlap, 1 = perfect overlap).
    latency_hiding: float = 0.35


@dataclass
class PhaseTime:
    """Resource-decomposed time of one phase, in milliseconds."""

    global_ms: float = 0.0
    shared_ms: float = 0.0
    compute_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.global_ms + self.shared_ms + self.compute_ms

    def scaled(self, f: float) -> "PhaseTime":
        return PhaseTime(self.global_ms * f, self.shared_ms * f,
                         self.compute_ms * f)


@dataclass
class TimingReport:
    """Grid-level modeled timing of one kernel launch.

    ``phases`` preserves kernel phase order; ``per_step`` gives the
    grid-level time of each recorded step (for Fig 9-style analysis).
    """

    phases: dict[str, PhaseTime] = field(default_factory=dict)
    per_step: list[tuple[str, int, float]] = field(default_factory=list)
    launch_overhead_ms: float = 0.0
    grid_scale: float = 1.0
    blocks_per_sm: int = 0
    waves: int = 0

    @property
    def total_ms(self) -> float:
        return (sum(p.total_ms for p in self.phases.values())
                + self.launch_overhead_ms)

    @property
    def global_ms(self) -> float:
        return sum(p.global_ms for p in self.phases.values())

    @property
    def shared_ms(self) -> float:
        return sum(p.shared_ms for p in self.phases.values())

    @property
    def compute_ms(self) -> float:
        """Computation time; launch/control overhead is folded in here,
        matching the paper's convention ("control and synchronization
        overhead is included in the computation time", §5.3)."""
        return (sum(p.compute_ms for p in self.phases.values())
                + self.launch_overhead_ms)

    def phase_ms(self, name: str) -> float:
        return self.phases[name].total_ms

    def steps_ms(self, phase: str) -> list[float]:
        return [t for (p, _i, t) in self.per_step if p == phase]

    def copy(self) -> "TimingReport":
        """A private copy (phase times are mutable)."""
        return TimingReport(
            {name: PhaseTime(pt.global_ms, pt.shared_ms, pt.compute_ms)
             for name, pt in self.phases.items()},
            list(self.per_step), self.launch_overhead_ms, self.grid_scale,
            self.blocks_per_sm, self.waves)


class CostModel:
    """Evaluate launch traces against a parameter set."""

    def __init__(self, params: CostModelParams):
        self.params = params

    # -- block level ---------------------------------------------------

    def phase_time_block_ns(self, pc: PhaseCounters,
                            blocks_per_sm: int = 1) -> PhaseTime:
        """Resource-decomposed block-level time of one phase, in ns
        (returned in a PhaseTime whose fields are ns here; callers scale
        to ms).

        ``blocks_per_sm`` feeds the exposed-latency term: co-resident
        blocks contribute extra warps that hide shared-access latency,
        so the per-block exposure shrinks proportionally.
        """
        p = self.params
        t_global = (pc.global_transactions * p.global_transaction_ns
                    + pc.global_words * p.global_word_ns
                    + pc.global_latency_units * p.global_latency_ns
                    / max(1, blocks_per_sm))
        t_shared = (pc.shared_cycles * p.shared_cycle_ns
                    + pc.latency_units * p.shared_latency_ns
                    / max(1, blocks_per_sm))
        t_compute = (pc.warp_instructions * p.warp_issue_ns
                     + pc.divs * p.div_ns
                     + pc.syncs * p.sync_ns
                     + pc.steps * p.step_ns)
        return PhaseTime(t_global, t_shared, t_compute)

    # -- grid level ----------------------------------------------------

    def grid_scale(self, device: DeviceSpec, num_blocks: int,
                   shared_bytes: int, threads_per_block: int
                   ) -> tuple[float, int, int]:
        """Multiplier from block-level to grid-level time.

        Returns ``(scale, blocks_per_sm, waves)``.  Raises if the block
        does not fit in shared memory (callers should then use the
        global-memory fallback path; see
        :func:`repro.gpusim.transfer.global_only_penalty`).
        """
        conc = device.blocks_per_sm(shared_bytes, threads_per_block)
        if conc == 0:
            raise ValueError(
                f"block needs {shared_bytes} B shared memory; exceeds "
                f"{device.shared_mem_per_sm} B per SM")
        # Blocks spread across SMs before stacking: an underfull grid
        # never co-schedules blocks on one SM just because it could.
        conc = min(conc, math.ceil(num_blocks / device.num_sms))
        waves = math.ceil(num_blocks / (device.num_sms * conc))
        eff = 1.0 - self.params.latency_hiding * (1.0 - 1.0 / conc)
        return waves * conc * eff, conc, waves

    def report(self, result: LaunchResult) -> TimingReport:
        """Grid-level modeled timing for a simulated launch.

        A planned launch whose ledger is unread is priced from its memo
        entry (:meth:`plan_report`, copied) and replays the entry's
        resolved telemetry writes; any other launch prices its own
        ledger.  Both give the same floats and the same writes.
        """
        entry = result.memo_entry()
        if entry is None:
            rep = self.grid_report(result.device, result.num_blocks,
                                   result.shared_bytes,
                                   result.threads_per_block, result.ledger)
        else:
            rep = self.plan_report(entry, result.num_blocks).copy()
        col = _telemetry.get_collector()
        if col is not None:
            self._record_telemetry(col, rep, entry, result.num_blocks)
        return rep

    def plan_report(self, entry, num_blocks: int) -> TimingReport:
        """:meth:`grid_report` of a memo entry
        (:class:`~repro.gpusim.estimator.PlanEntry`) over ``num_blocks``,
        computed once per ``(params, num_blocks)`` and kept on the
        entry.  The report is shared: treat it as read-only."""
        return entry.derive(
            ("report", self.params, num_blocks),
            lambda: self.grid_report(entry.device, num_blocks,
                                     entry.shared_bytes,
                                     entry.threads_per_block, entry.ledger))

    def grid_report(self, device: DeviceSpec, num_blocks: int,
                    shared_bytes: int, threads_per_block: int,
                    ledger: CounterLedger) -> TimingReport:
        """Price a per-block ``ledger`` over a grid of ``num_blocks``
        (what :meth:`report` does, minus telemetry)."""
        scale, conc, waves = self.grid_scale(device, num_blocks,
                                             shared_bytes, threads_per_block)
        ns_to_ms = 1e-6
        rep = TimingReport(
            launch_overhead_ms=self.params.launch_overhead_ns * ns_to_ms,
            grid_scale=scale, blocks_per_sm=conc, waves=waves)
        for name, pc in ledger.phases.items():
            block_ns = self.phase_time_block_ns(pc, blocks_per_sm=conc)
            rep.phases[name] = block_ns.scaled(scale * ns_to_ms)
        for phase, idx, pc in ledger.step_records:
            t = self.phase_time_block_ns(pc, blocks_per_sm=conc).total_ms
            rep.per_step.append((phase, idx, t * scale * ns_to_ms))
        return rep

    def _record_telemetry(self, col, rep: TimingReport, entry,
                          num_blocks: int) -> None:
        """Aggregate this report into the active telemetry collector.

        Labeled by the solver name from the innermost open span (set by
        ``run_kernel``/``timed_solve``) when one is available.  With a
        memo ``entry`` the writes are resolved once per cost model,
        block count and solver label, and replayed.
        """
        labels = {}
        solver = _telemetry.current_attr("solver")
        if solver is not None:
            labels["solver"] = solver

        def writes():
            return (resolve("model.reports", **labels),
                    resolve("model.total_ms", rep.total_ms, **labels),
                    *(resolve("model.phase_ms", pt.total_ms, phase=name,
                              **labels)
                      for name, pt in rep.phases.items()))

        col.metrics.replay(
            writes() if entry is None else entry.derive(
                ("model", self.params, num_blocks,
                 None if solver is None else str(solver)), writes))
        _telemetry.event("costmodel.report", total_ms=rep.total_ms,
                         blocks_per_sm=rep.blocks_per_sm, waves=rep.waves,
                         **labels)
