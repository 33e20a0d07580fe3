"""Architectural performance counters recorded during kernel simulation.

The paper's measurement methodology attributes execution time to
(a) algorithm phases (Figs 8, 11, 13, 15, 16) and (b) hardware resources
-- global memory, shared memory, computation (Figs 10, 12, 14).  The
simulator therefore keeps a *ledger*: one :class:`PhaseCounters` record
per named phase, each holding both resource counts and the serialization
effects (bank conflicts, warp granularity) needed by the cost model.

All counts are **per block**; the executor scales them to grid level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class PhaseCounters:
    """Resource counts attributed to one named phase of a kernel.

    Attributes
    ----------
    shared_words:
        Number of 32-bit words moved to/from shared memory (load+store),
        summed over active lanes.  Matches the "shared memory accesses"
        column of the paper's Table 1.
    shared_cycles:
        Half-warp access slots consumed, *including* bank-conflict
        serialization: each access instruction contributes
        ``sum over half-warps of conflict_degree``.
    shared_instructions:
        Shared access instructions issued (one per load/store site per
        step), in half-warp units without conflicts.  The ratio
        ``shared_cycles / shared_instructions`` is the average
        conflict degree.
    global_words:
        32-bit words moved to/from global memory.
    global_transactions:
        Coalesced memory transactions (64-byte segments on GT200).
    flops:
        Arithmetic operations summed over active lanes (the paper's
        "arithmetic operations" column; divisions included).
    divs:
        Division operations summed over active lanes (separately costed:
        the paper notes divisions are expensive, §5.3.1).
    warp_instructions:
        Arithmetic instructions in warp-issue units: each vector
        instruction contributes ``warps(active_threads)``.  Captures the
        warp-granularity effect -- a step with 2 active threads still
        issues whole warps.
    syncs:
        ``__syncthreads()`` barriers executed.
    steps:
        Algorithmic steps (loop iterations) executed; each carries
        control overhead in the cost model.
    latency_units:
        Exposed-latency weight of shared accesses: each access site
        contributes ``1 / active_warps``.  With many active warps the
        pipeline hides load latency (PCR/RD); with one warp left (late
        CR steps) every dependent access stalls.  This is the dominant
        reason the paper measures CR's shared bandwidth at 33 GB/s
        against PCR's 883 GB/s (a factor the paper attributes to "the
        large penalty of bank conflicts ... and the low vector
        load/store utilization", §5.3.2).
    max_active_threads:
        Peak number of simultaneously active threads in this phase
        (used for occupancy and reporting).
    """

    shared_words: int = 0
    shared_cycles: int = 0
    shared_instructions: int = 0
    global_words: int = 0
    global_transactions: int = 0
    flops: int = 0
    divs: int = 0
    warp_instructions: int = 0
    syncs: int = 0
    steps: int = 0
    latency_units: float = 0.0
    #: Same exposure accounting for *global* accesses: serialized
    #: transactions times the unhidden fraction.  Zero for the staged
    #: kernels (their global traffic uses full coalesced thread
    #: fronts); dominant for the global-memory-only fallback, whose
    #: ~3x penalty (paper §4) is exactly exposed DRAM latency.
    global_latency_units: float = 0.0
    max_active_threads: int = 0

    def merge(self, other: "PhaseCounters") -> None:
        """Accumulate ``other`` into this record in place."""
        peak = max(self.max_active_threads, other.max_active_threads)
        mine = self.__dict__
        for name, value in other.__dict__.items():
            mine[name] += value
        self.max_active_threads = peak

    def scaled(self, factor: float) -> "PhaseCounters":
        """Return a copy with every additive count multiplied by ``factor``."""
        out = PhaseCounters.__new__(PhaseCounters)
        out.__dict__.update((name, value * factor)
                            for name, value in self.__dict__.items())
        out.max_active_threads = self.max_active_threads
        return out

    def copy(self) -> "PhaseCounters":
        """Independent copy.  Every field is a scalar, so copying the
        instance dict is complete -- and orders of magnitude cheaper
        than ``copy.deepcopy``, which matters because a planned
        launch's ledger is a copy of its memo entry's, made when the
        ledger is first read."""
        out = PhaseCounters.__new__(PhaseCounters)
        out.__dict__.update(self.__dict__)
        return out

    @property
    def conflict_degree(self) -> float:
        """Average shared-memory bank-conflict degree in this phase."""
        if self.shared_instructions == 0:
            return 1.0
        return self.shared_cycles / self.shared_instructions

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class CounterLedger:
    """Ordered collection of per-phase counters for one kernel run."""

    phases: dict[str, PhaseCounters] = field(default_factory=dict)
    #: Ordered step boundaries: list of (phase, step_index, PhaseCounters)
    #: snapshots enabling per-step analysis (Fig 9).
    step_records: list[tuple[str, int, PhaseCounters]] = field(
        default_factory=list)

    def phase(self, name: str) -> PhaseCounters:
        """Fetch (creating if needed) the counters for ``name``."""
        if name not in self.phases:
            self.phases[name] = PhaseCounters()
        return self.phases[name]

    def total(self) -> PhaseCounters:
        """Sum of all phases."""
        out = PhaseCounters()
        for pc in self.phases.values():
            out.merge(pc)
        return out

    def copy(self) -> "CounterLedger":
        """Independent copy: fresh dict/list containers and fresh
        :class:`PhaseCounters` throughout (equivalent to a deep copy,
        without the generic-machinery cost)."""
        return CounterLedger(
            phases={name: pc.copy() for name, pc in self.phases.items()},
            step_records=[(p, i, pc.copy())
                          for p, i, pc in self.step_records])

    def record_step(self, phase: str, index: int,
                    counters: PhaseCounters) -> None:
        self.step_records.append((phase, index, counters))

    def steps_in_phase(self, phase: str) -> list[PhaseCounters]:
        """Per-step counter snapshots for one phase, in execution order."""
        return [pc for (p, _i, pc) in self.step_records if p == phase]

    def phase_names(self) -> list[str]:
        return list(self.phases.keys())

    def merged(self, other: "CounterLedger") -> "CounterLedger":
        """Return a new ledger combining this one and ``other``."""
        out = CounterLedger()
        for src in (self, other):
            for name, pc in src.phases.items():
                out.phase(name).merge(pc)
            out.step_records.extend(src.step_records)
        return out
