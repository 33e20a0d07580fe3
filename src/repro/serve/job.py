"""Job and report types of the batch-solve serving layer.

A :class:`SolveJob` is the unit of admission: a batch of tridiagonal
systems, the GPU method to run them with, a chunking spec, and the
robustness budget (deadline, residual tolerance, CPU degradation
chain).  The scheduler shards it into chunks of ``chunk_size`` systems
and reports back a :class:`JobReport` with one :class:`ChunkRecord`
per chunk -- which device served it, how many attempts it took, what
it cost in modeled milliseconds, and the digest its checkpoint entry
carries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.kernels.api import KERNELS, plan_launch
from repro.solvers.api import SOLVERS
from repro.solvers.systems import TridiagonalSystems

#: GPU methods a job may name: the registry solvers that have a kernel
#: (the ablation kernels are not served).
GPU_METHODS = sorted(KERNELS.keys() & SOLVERS.keys())

#: Default CPU degradation ladder: the sequential baseline first, the
#: §5.4 pivoting anchor as the last word.
DEFAULT_CPU_CHAIN: tuple[str, ...] = ("thomas", "gep")


def digest_array(x: np.ndarray) -> str:
    """SHA-256 of an array's raw bytes -- the bitwise-identity anchor
    for checkpoint/resume equivalence tests."""
    x = np.ascontiguousarray(x)
    h = hashlib.sha256()
    h.update(str(x.dtype).encode())
    h.update(str(x.shape).encode())
    h.update(x.tobytes())
    return h.hexdigest()


@dataclass
class SolveJob:
    """One admitted batch-solve request.

    Parameters
    ----------
    job_id:
        Stable identifier; keys the checkpoint file and all metrics.
    systems:
        The batch to solve (``n`` must be a power of two for the GPU
        method; off-sized work belongs to :func:`repro.robust_solve`).
    method:
        GPU kernel to run chunks with (any :data:`GPU_METHODS` entry:
        a :data:`repro.solvers.api.SOLVERS` solver with a
        :data:`repro.kernels.api.KERNELS` entry), or ``"auto"`` to let
        the scheduler pick method *and* layout from the layout
        autotuner's analytic ranking at admission.  The job's chunk
        shape must pass :func:`repro.kernels.api.plan_launch`.
    layout:
        Batch layout the GPU chunks run in (``"sequential"`` |
        ``"interleaved"``), as the method's table entry allows;
        ``method="auto"`` overwrites this with the autotuner's joint
        pick.
    intermediate_size:
        Hybrid switch point, as :func:`repro.kernels.api.run_kernel`.
    chunk_size:
        Systems per dispatched chunk.  Small chunks reroute faster
        around a tripped device; large chunks amortise launch overhead.
    deadline_ms:
        Modeled-time budget for the whole job (``None`` = no deadline).
        Modeled time is the deterministic clock chaos tests assert on.
    wall_deadline_s:
        Optional wall-clock budget checked against ``time.monotonic``
        (a safety net for real runs; off by default to keep seeded
        runs bit-reproducible).
    residual_tol:
        Per-system float64 relative-residual acceptance gate applied
        to every GPU chunk result (same semantics as ``robust_solve``).
    cpu_chain:
        Escalation ladder used when a chunk degrades to the CPU.
    slo_class:
        SLO class name (``interactive``/``standard``/``batch`` by
        default; see :mod:`repro.telemetry.slo`).  Keys the per-class
        latency/burn-rate accounting; unknown names auto-register.
    tenant:
        Submitting tenant name (multi-tenant front end); labels the
        shed/quota metrics and the per-tenant SLO attribution.  Not
        part of the input digest -- the same job resumed under a
        renamed tenant still matches its checkpoint.
    """

    job_id: str
    systems: TridiagonalSystems
    method: str = "cr_pcr"
    layout: str = "sequential"
    intermediate_size: int | None = None
    chunk_size: int = 8
    deadline_ms: float | None = None
    wall_deadline_s: float | None = None
    residual_tol: float = 1e-4
    cpu_chain: tuple[str, ...] = DEFAULT_CPU_CHAIN
    slo_class: str = "standard"
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError(f"job {self.job_id!r}: chunk_size must be >= 1")
        if self.method == "auto":
            # The autotuner picks method and layout (for any n >= 2).
            if not any(self.layout in e.layouts for e in KERNELS.values()):
                raise ValueError(
                    f"job {self.job_id!r}: unknown layout {self.layout!r}")
        elif self.method not in GPU_METHODS:
            raise ValueError(
                f"job {self.job_id!r}: unknown GPU method "
                f"{self.method!r}; available: {GPU_METHODS} or 'auto'")
        else:
            try:
                plan_launch(self.method, self.systems.n,
                            min(self.chunk_size, self.systems.num_systems),
                            intermediate_size=self.intermediate_size,
                            layout=self.layout)
            except ValueError as exc:
                raise ValueError(f"job {self.job_id!r}: {exc}") from None
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"job {self.job_id!r}: deadline must be > 0")

    @property
    def num_chunks(self) -> int:
        return -(-self.systems.num_systems // self.chunk_size)

    def chunk_indices(self, chunk_id: int) -> np.ndarray:
        """System indices of one chunk (contiguous shard)."""
        if not 0 <= chunk_id < self.num_chunks:
            raise IndexError(f"chunk {chunk_id} outside "
                             f"[0, {self.num_chunks})")
        lo = chunk_id * self.chunk_size
        hi = min(lo + self.chunk_size, self.systems.num_systems)
        return np.arange(lo, hi, dtype=np.int64)

    def chunk_systems(self, chunk_id: int) -> TridiagonalSystems:
        return self.systems.take(self.chunk_indices(chunk_id))

    def input_digest(self) -> str:
        """Digest of the job's inputs + spec; guards checkpoint resume
        against feeding a file from a different job."""
        h = hashlib.sha256()
        for arr in (self.systems.a, self.systems.b, self.systems.c,
                    self.systems.d):
            h.update(digest_array(arr).encode())
        h.update(f"{self.method}|{self.intermediate_size}|"
                 f"{self.chunk_size}|{self.residual_tol}|"
                 f"{'>'.join(self.cpu_chain)}".encode())
        if self.layout != "sequential":
            # Appended only off-default so pre-layout checkpoints keep
            # matching their jobs.
            h.update(f"|layout={self.layout}".encode())
        return h.hexdigest()


#: Attempt outcomes that count as a device fault in the per-device
#: outcome table.
FAULT_OUTCOMES = frozenset({"launch_error", "corruption", "timeout"})

#: Attempt outcomes produced by hedged execution: a ``hedge_cancelled``
#: loser (healthy, just slower) and a ``hedge_failed`` hedge whose
#: result was unusable (fault, timeout or residual miss).
HEDGE_OUTCOMES = frozenset({"hedge_cancelled", "hedge_failed"})


@dataclass
class ChunkAttempt:
    """One dispatch attempt of a chunk on one device.

    ``outcome`` is one of ``ok`` | ``launch_error`` | ``corruption`` |
    ``timeout`` | ``residual`` | ``hedge_cancelled`` | ``hedge_failed``
    (the last two come from hedged execution; the race winner -- hedge
    or primary -- always lands as a plain ``ok``).
    """

    device: str
    outcome: str
    modeled_ms: float = 0.0
    backoff_ms: float = 0.0   #: jittered modeled backoff before retry


@dataclass
class ChunkRecord:
    """Outcome of one chunk of a job."""

    chunk_id: int
    #: ``ok`` (GPU path), ``degraded`` (CPU chain), ``restored``
    #: (loaded from a checkpoint), ``failed`` (even the CPU chain could
    #: not vouch for every system).
    status: str
    device: str              #: serving device name, or "cpu"
    attempts: list[ChunkAttempt] = field(default_factory=list)
    start_ms: float = 0.0    #: modeled dispatch time
    end_ms: float = 0.0      #: modeled completion time
    modeled_ms: float = 0.0  #: modeled cost of the accepted attempt
    digest: str = ""         #: digest of the chunk's solution rows

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    def to_dict(self) -> dict:
        return {
            "chunk_id": self.chunk_id, "status": self.status,
            "device": self.device,
            "attempts": [{"device": a.device, "outcome": a.outcome,
                          "modeled_ms": a.modeled_ms,
                          "backoff_ms": a.backoff_ms}
                         for a in self.attempts],
            "start_ms": self.start_ms, "end_ms": self.end_ms,
            "modeled_ms": self.modeled_ms, "digest": self.digest,
        }


@dataclass
class JobReport:
    """Everything the scheduler knows about one job's run."""

    job_id: str
    x: np.ndarray                      #: (num_systems, n) solution
    chunks: list[ChunkRecord]
    deadline_ms: float | None
    makespan_ms: float = 0.0           #: modeled end-to-end duration
    completed: bool = True             #: False when killed/stopped early
    deadline_met: bool = True
    #: ``ok`` | ``deadline`` | ``stopped`` | ``failed``
    outcome: str = "ok"
    #: SLO class the job was admitted under.
    slo_class: str = "standard"
    #: Tenant the job was submitted by.
    tenant: str = "default"
    #: Modeled milliseconds between admission and dispatch.
    queue_wait_ms: float = 0.0
    #: Trace-context id linking every span of this job's lifecycle
    #: (None when telemetry was disabled during the run).
    trace_id: str | None = None

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def degraded_chunks(self) -> list[int]:
        return [c.chunk_id for c in self.chunks if c.status == "degraded"]

    @property
    def failed_chunks(self) -> list[int]:
        return [c.chunk_id for c in self.chunks if c.status == "failed"]

    @property
    def restored_chunks(self) -> list[int]:
        return [c.chunk_id for c in self.chunks if c.status == "restored"]

    @property
    def total_retries(self) -> int:
        return sum(c.retries for c in self.chunks)

    @property
    def ok(self) -> bool:
        return (self.completed and self.deadline_met
                and not self.failed_chunks)

    def devices_used(self) -> dict[str, int]:
        """Serving device -> chunks it completed."""
        out: dict[str, int] = {}
        for c in self.chunks:
            out[c.device] = out.get(c.device, 0) + 1
        return out

    def device_outcomes(self) -> dict[str, dict[str, int]]:
        """Per-device attempt accounting across this job's chunks:
        ``{device: {"ok", "faulted", "hedged", "residual_missed"}}``.

        ``hedged`` counts hedge-race losers and failed hedges on the
        device (a hedge the device *won* counts under ``ok`` like any
        accepted attempt).  Restored chunks carry their original
        attempt lists, so resumed jobs aggregate identically.
        """
        out: dict[str, dict[str, int]] = {}

        def row(device: str) -> dict[str, int]:
            return out.setdefault(device, {
                "ok": 0, "faulted": 0, "hedged": 0, "residual_missed": 0})

        for c in self.chunks:
            for a in c.attempts:
                if a.outcome == "ok":
                    row(a.device)["ok"] += 1
                elif a.outcome in FAULT_OUTCOMES:
                    row(a.device)["faulted"] += 1
                elif a.outcome in HEDGE_OUTCOMES:
                    row(a.device)["hedged"] += 1
                elif a.outcome == "residual":
                    row(a.device)["residual_missed"] += 1
            if c.device == "cpu" and c.status in ("degraded", "failed"):
                row("cpu")["ok" if c.status == "degraded" else "faulted"] += 1
        return out

    def solution_digest(self) -> str:
        return digest_array(self.x)

    def summary(self) -> str:
        """Human-readable roll-up (used by the ``repro serve`` CLI)."""
        lines = [f"job {self.job_id}: {self.outcome}"]
        lines.append(
            f"  chunks: {self.num_chunks} "
            f"({len(self.degraded_chunks)} degraded, "
            f"{len(self.restored_chunks)} restored, "
            f"{len(self.failed_chunks)} failed)   "
            f"retries: {self.total_retries}")
        budget = (f" / deadline {self.deadline_ms:g} ms "
                  f"[{'met' if self.deadline_met else 'MISSED'}]"
                  if self.deadline_ms is not None else "")
        lines.append(f"  modeled makespan: {self.makespan_ms:.3f} ms{budget}")
        lines.append("  devices: " + ", ".join(
            f"{d}={n}" for d, n in sorted(self.devices_used().items())))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready form (solution replaced by its digest)."""
        return {
            "job_id": self.job_id,
            "outcome": self.outcome,
            "completed": self.completed,
            "slo_class": self.slo_class,
            "tenant": self.tenant,
            "queue_wait_ms": self.queue_wait_ms,
            "trace_id": self.trace_id,
            "deadline_ms": self.deadline_ms,
            "deadline_met": self.deadline_met,
            "makespan_ms": self.makespan_ms,
            "num_chunks": self.num_chunks,
            "degraded_chunks": self.degraded_chunks,
            "restored_chunks": self.restored_chunks,
            "failed_chunks": self.failed_chunks,
            "total_retries": self.total_retries,
            "devices_used": self.devices_used(),
            "device_outcomes": self.device_outcomes(),
            "solution_digest": self.solution_digest(),
            "chunks": [c.to_dict() for c in self.chunks],
        }
