"""The resilient batch-solve scheduler.

:class:`BatchScheduler` runs :class:`~repro.serve.job.SolveJob`
batches: it shards each into chunks of at most one occupancy wave
(:meth:`~BatchScheduler.resolve`) and dispatches the chunks across a
:class:`~repro.gpusim.pool.DevicePool` under a full robustness
contract.  It keeps no queue and makes no admission decision of its
own -- that is :class:`~repro.serve.frontend.ServeFrontend`'s job;
:meth:`~BatchScheduler.commit` records that a job was handed over and
:meth:`~BatchScheduler.run_job` runs it:

* **placement** -- each chunk goes to the least-loaded device (by the
  deterministic modeled clock) that the
  :class:`~repro.serve.health.HealthMonitor` allows; ties break to the
  device idle longest, then pool order, so placement is a pure function
  of the schedule so far;
* **retries + rerouting** -- a typed device fault
  (:class:`~repro.gpusim.faults.KernelLaunchError`,
  :class:`~repro.gpusim.faults.DataCorruptionError`) or a modeled
  per-chunk timeout is charged to the device's health and moves the
  chunk to the next healthy device after a seeded full-jitter backoff;
* **device health** -- the monitor is the one per-device authority:
  repeated failures open the device's circuit (nothing placed until
  its modeled cooldown elapses, then probes trickle through), and its
  lifecycle scores every device from EWMA fault rate,
  realized-vs-modeled latency and circuit trip history; quarantined
  devices leave the placement set until seeded canary solves readmit
  them, flapping devices are evicted and warm spares promoted;
* **hedged chunks** -- when a chunk's realized/modeled cost ratio
  crosses ``hedge_ratio``, a deterministic hedge launches on the
  next-best healthy device; the first acceptable result wins and the
  loser is accounted as ``hedge_cancelled``;
* **graceful degradation** -- the systems of a chunk that fail its
  per-system residual gate (the rows that pass keep the GPU result),
  or a whole chunk that finds no device placeable, fall back to the CPU
  chain via :func:`repro.resilience.robust_solve` (``thomas`` ->
  ``gep`` by default): slower, never wrong;
* **deadlines** -- per-job modeled-time budgets (plus an optional
  wall-clock guard); a blown budget stops the job with
  ``outcome="deadline"`` and a ``serve.deadline_misses`` count instead
  of silently running forever;
* **checkpoint/resume** -- completed chunks and scheduler state are
  appended in blocks to the session journal
  (:mod:`repro.serve.checkpoint`); a killed run resumed with
  ``resume=True`` restores results bitwise and recomputes only the
  unpersisted suffix, on the job's own timeline, so it makes the
  uninterrupted run's decisions at any kill point.

Everything modeled is deterministic under seeded per-device fault
profiles: two identical runs produce identical reports, digests and
metric counters, which is what the chaos suite asserts.
"""

from __future__ import annotations

import time
import zlib
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro import telemetry
from repro.gpusim import faults as _faults
from repro.gpusim.estimator import characterize, estimate_ms
from repro.gpusim.gt200 import gt200_cost_model
from repro.gpusim.pool import (DevicePool, PooledDevice, derive_seed,
                               derive_seeds)
from repro.kernels.api import plan_launch, run_kernel
from repro.resilience.pipeline import _relative_residuals, robust_solve
from repro.solvers.systems import TridiagonalSystems
from repro.telemetry.metrics import (CHUNK_RETRIES, COST_RESIDUAL,
                                     DEADLINE_MISSES, DEGRADED_TOTAL,
                                     HEDGES_TOTAL, LAUNCHES_TOTAL,
                                     RETRY_DELAY, SERVE_CHUNK_LATENCY,
                                     SERVE_LATENCY, emit)
from repro.telemetry.slo import SLORegistry

from .checkpoint import CheckpointWriter, ResumeState
from .health import CLOSED, RESIDUAL, HealthMonitor, HealthPolicy
from .job import ChunkAttempt, ChunkRecord, JobReport, SolveJob, digest_array

#: Modeled CPU-chain cost per unknown (sequential Thomas-style sweep).
CPU_NS_PER_UNKNOWN = 500.0

#: Attempt-coordinate offset for hedge fault plans.  A hedge must draw
#: a fault stream distinct from every retry of the same chunk, so its
#: plan is derived at ``HEDGE_ATTEMPT_BASE + attempt`` -- far above any
#: realistic ``max_chunk_retries``.
HEDGE_ATTEMPT_BASE = 1_000_000


@dataclass
class _Launched:
    """A launch that solved its chunk acceptably: one side of a hedge
    race."""

    device: str
    start: float
    cost: float
    ratio: float | None
    x: np.ndarray

    @property
    def end(self) -> float:
        return self.start + self.cost


@dataclass
class _JobRun:
    """One job's bookkeeping inside :meth:`BatchScheduler.run_job`."""

    job: SolveJob
    ready: float                  #: commit-and-arrival (or restored) ms
    arrival: float | None
    start: float                  #: the job's start on the modeled clock
    trace_id: str | None
    root_id: int | None
    x: np.ndarray
    chunks: list[ChunkRecord] = field(default_factory=list)
    outcome: str = "ok"           #: until a deadline or stop_after
    since_barrier: int = 0
    computed: int = 0
    wall_start: float = field(default_factory=time.monotonic)


def _residual_layout(job: SolveJob) -> str:
    """Cost-residual metric label for a job's layout.  The sequential
    five-array layout keeps its historical ``"global"`` label; the
    interleaved layout gets its own calibration series."""
    return job.layout if job.layout != "sequential" else "global"


class BatchScheduler:
    """Dispatch chunked solve jobs across a simulated device pool.

    Parameters
    ----------
    pool:
        The devices to schedule over.
    max_chunk_retries:
        Device attempts per chunk beyond the first before the chunk
        degrades to the CPU chain.
    chunk_timeout_ms:
        Modeled per-chunk watchdog; a GPU attempt whose modeled cost
        exceeds it counts as a device failure (``None`` disables).
    backoff_base_ms, backoff_cap_ms:
        Seeded full-jitter retry backoff (modeled milliseconds),
        derived per ``(job, chunk, attempt)`` so retries decorrelate
        but resume stays deterministic.
    checkpoint_dir:
        Directory of the session's checkpoint journal (``None``
        disables checkpointing; see :meth:`journal`).
    checkpoint_every:
        Chunks per checkpoint barrier.
    seed:
        Entropy root for the scheduler's own draws (backoff jitter),
        per-job trace ids and readmission canaries.
    hedge_ratio:
        Realized/modeled cost ratio above which a completed chunk also
        launches a hedge on the next-best healthy device (``None``
        disables hedging).  A fixed threshold -- not a quantile over
        run history -- so a resumed run (which never re-observes
        restored chunks) hedges identically to a straight one.
    health_policy:
        Circuit and lifecycle thresholds for the built-in
        :class:`~repro.serve.health.HealthMonitor` (defaults when not
        given; the monitor itself is always on).

    Realized chunk costs are priced with the GT200 cost model, the
    same one :meth:`estimate_job_ms` and the layout autotuner use, so
    the hedge trigger and ``estimator.cost_residual`` compare like
    with like.  SLO accounting goes to :attr:`slo`, the serve layer's
    one default-class :class:`~repro.telemetry.slo.SLORegistry`.
    """

    def __init__(self, pool: DevicePool, *,
                 max_chunk_retries: int = 3,
                 chunk_timeout_ms: float | None = None,
                 backoff_base_ms: float = 0.05,
                 backoff_cap_ms: float = 2.0,
                 checkpoint_dir: str | None = None,
                 checkpoint_every: int = 4,
                 seed: int = 0,
                 hedge_ratio: float | None = None,
                 health_policy: HealthPolicy | None = None):
        self.pool = pool
        self.max_chunk_retries = max(0, int(max_chunk_retries))
        self.chunk_timeout_ms = chunk_timeout_ms
        self.backoff_base_ms = backoff_base_ms
        self.backoff_cap_ms = backoff_cap_ms
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.seed = seed
        self._cost_model = gt200_cost_model()
        self.hedge_ratio = hedge_ratio
        # Clocks cover warm spares too: promotion must never change the
        # shape of checkpointed scheduler state.
        self._clock: dict[str, float] = {
            d.name: 0.0 for d in pool.all_devices()}
        self.slo = SLORegistry()
        self.health = HealthMonitor(pool, policy=health_policy, seed=seed,
                                    slo=self.slo)
        self._cpu_clock = 0.0
        self._now_ms = 0.0
        #: job_id -> (committed-and-arrived ms, arrival ms or None).
        self._committed: dict[str, tuple[float, float | None]] = {}
        #: Per-job trace roots: job_id -> (collector, trace_id, root
        #: LiveSpan).  The root is detached (never the implicit parent
        #: of other jobs' spans) and closed when the job finishes.
        self._traces: dict[str, tuple] = {}
        #: job_id -> trace id derived ahead (:meth:`derive_trace_ids`).
        self._trace_ids: dict[str, str] = {}
        self._journal: CheckpointWriter | None = None

    def journal(self, resume: bool = False) -> CheckpointWriter | None:
        """The session's one checkpoint writer, or ``None`` without a
        checkpoint directory.  The first call opens it: ``resume=True``
        parses the existing journal and appends to it, otherwise the
        journal starts over."""
        if self._journal is None and self.checkpoint_dir is not None:
            self._journal = CheckpointWriter(self.checkpoint_dir,
                                             resume=resume)
        return self._journal

    @property
    def now_ms(self) -> float:
        """The modeled-time frontier: the latest completion observed."""
        return self._now_ms

    def resolve(self, job: SolveJob) -> None:
        """Resolve ``method="auto"`` and the chunk size, in one step.

        The chunk is ``min(cap, num_systems, one wave)``: one wave is
        ``num_sms x blocks_per_sm x systems_per_block`` of the chunk's
        plan (:func:`characterize <repro.gpusim.estimator.characterize>`),
        the occupancy rule :meth:`CostModel.grid_scale
        <repro.gpusim.costmodel.CostModel.grid_scale>` prices, so a
        chunk is one launch of at most one wave.  The rule does not
        depend on the pool's size, so a checkpoint resumes on a pool
        of another size.  ``method="auto"`` becomes the layout
        autotuner's (method, layout) pick at the chunk shape that runs:
        it ranks ``min(cap, num_systems)`` systems and, when that is
        more than one wave of its pick, ranks again at that wave.  Both
        are written back onto the job, so dispatch, estimates, digests,
        checkpoints and telemetry see them; resolving again is a no-op.
        """
        device = self.pool.all_devices()[0].spec
        num = job.systems.num_systems
        cap = min(job.chunk_size or num, num)
        if job.method == "auto":
            from repro.analysis.layout_autotuner import choose_layout
            choice = choose_layout(cap, job.systems.n, device=device)
            job.method, job.layout = choice.method, choice.layout
            wave = self._wave(job, cap)
            if wave < cap:
                choice = choose_layout(wave, job.systems.n, device=device)
                job.method, job.layout = choice.method, choice.layout
            telemetry.event("serve.autotune", job=job.job_id,
                            method=job.method, layout=job.layout,
                            predicted_ms=choice.predicted_ms)
        job.chunk_size = min(cap, self._wave(job, cap))

    def _wave(self, job: SolveJob, num_systems: int) -> int:
        """Systems in one occupancy wave of ``job``'s plan for a launch
        of ``num_systems`` on the pool's device type (at least 1)."""
        device = self.pool.all_devices()[0].spec
        plan = plan_launch(job.method, job.systems.n, num_systems,
                           intermediate_size=job.intermediate_size,
                           device=device, layout=job.layout)
        block = characterize(plan)
        return max(1, device.num_sms * plan.systems_per_block
                   * device.blocks_per_sm(block.shared_bytes,
                                          block.threads_per_block))

    def estimate_job_ms(self, job: SolveJob) -> float:
        """Modeled makespan of ``job`` on an idle healthy pool.

        One chunk is costed analytically (no functional execution; see
        :func:`repro.gpusim.estimator.estimate_ms`, bitwise-equal to
        the simulate-then-cost path), and the pool runs the chunks in
        ``ceil(num_chunks / len(pool))`` rounds of one chunk per
        device.  The front end prices admission with it.  The job is
        resolved first (:meth:`resolve`), so admission estimates price
        the method, layout and chunk that will run.
        """
        self.resolve(job)
        return self._chunk_ms(job) * -(-job.num_chunks // len(self.pool))

    def _chunk_ms(self, job: SolveJob, num_systems: int | None = None
                  ) -> float:
        """The analytic price of one launch of ``num_systems`` (default:
        one chunk) of ``job``'s plan: the plan's memo entry, which a
        planned launch of that shape is charged from too."""
        return estimate_ms(job.method, job.systems.n,
                           num_systems or job.chunk_size,
                           intermediate_size=job.intermediate_size,
                           cost_model=self._cost_model, layout=job.layout)

    def _chunk_estimate_ms(self, job: SolveJob,
                           num_systems: int | None = None) -> float:
        """Modeled estimate for one launch of ``num_systems`` of ``job``
        (the unit the hedge trigger and the cost-residual telemetry
        compare that launch's realized cost against)."""
        with telemetry.span("serve.estimate", job=job.job_id,
                            method=job.method):
            return self._chunk_ms(job, num_systems)

    # -- trace context --------------------------------------------------

    def trace_id_for(self, job_id: str) -> str:
        """Deterministic trace id for a job: a pure function of the
        scheduler seed and the job id, so two identical seeded runs
        export identical traces."""
        return self._trace_ids.get(job_id) or format(
            derive_seed(self.seed, "trace", job_id), "08x")

    def derive_trace_ids(self, job_ids) -> None:
        """Derive :meth:`trace_id_for` of ``job_ids`` ahead, vectorized
        over their CRC-32s (a string's seed word in :func:`derive_seed`):
        under 1 us an id over a stream, against 10-25 us one by one."""
        ids = [j for j in job_ids if j not in self._trace_ids]
        if ids:
            seeds = derive_seeds(self.seed, "trace", counters=[
                zlib.crc32(j.encode()) for j in ids])
            self._trace_ids.update(
                zip(ids, [format(s, "08x") for s in seeds.tolist()]))

    def _trace_context(self, job: SolveJob):
        """``(trace_id, root LiveSpan)`` for ``job``; opens the
        detached per-job root span on first use.  ``(None, None)``
        when telemetry is disabled."""
        col = telemetry.get_collector()
        if col is None:
            return None, None
        entry = self._traces.get(job.job_id)
        if entry is not None and entry[0] is col:
            return entry[1], entry[2]
        trace_id = self.trace_id_for(job.job_id)
        root = col.start_span("serve.trace",
                              {"job": job.job_id, "cls": job.slo_class},
                              trace_id=trace_id, detached=True)
        root.__enter__()
        self._traces[job.job_id] = (col, trace_id, root)
        return trace_id, root

    def _close_trace(self, job_id: str) -> None:
        entry = self._traces.pop(job_id, None)
        if entry is not None and entry[0] is telemetry.get_collector():
            entry[2].__exit__(None, None, None)

    def commit(self, job: SolveJob, *,
               not_before_ms: float | None = None) -> None:
        """Take over ``job`` for execution (never raises: admission is
        the front end's decision).  Opens the job's trace root, records
        the ``serve.admit`` span and stamps the commit time for
        ``queue_wait_ms``.  ``not_before_ms`` is the job's arrival: it
        starts no earlier, and its SLO latency runs from it."""
        trace_id, root = self._trace_context(job)
        parent = root.record.span_id if root is not None else None
        with telemetry.trace_span("serve.admit", trace_id=trace_id,
                                  parent_id=parent, job=job.job_id,
                                  cls=job.slo_class):
            pass
        ready = (self._now_ms if not_before_ms is None
                 else max(self._now_ms, not_before_ms))
        self._committed[job.job_id] = (ready, not_before_ms)

    # -- scheduling internals ------------------------------------------

    def _restore(self, state: ResumeState) -> None:
        for name, ms in state.device_clocks.items():
            if name in self._clock:
                self._clock[name] = ms
        self._cpu_clock = state.cpu_clock_ms
        self._now_ms = max(self._now_ms, state.now_ms)
        # Loading health re-applies spare promotions recorded in the
        # snapshot, so pool membership (and with it placement order)
        # matches the moment the barrier was written.
        self.health.load_state_dict(state.health)

    def _pick_device(self, frontier_ms: float,
                     exclude: set[str]) -> PooledDevice | None:
        """Least-loaded device the health monitor allows at its start
        time; ``None`` when none is (every circuit cooling down, every
        device quarantined).  Devices free at the same start tie-break
        to the one idle longest (lowest clock), then pool order, so
        one-chunk jobs spread over the pool instead of piling onto its
        first device.  ``exclude`` holds devices that already failed
        this chunk -- preferred away from, but allowed again when they
        are all that is left."""
        def candidates(skip_excluded: bool
                       ) -> list[tuple[float, float, int]]:
            out = []
            for i, dev in enumerate(self.pool):
                if skip_excluded and dev.name in exclude:
                    continue
                clock = self._clock[dev.name]
                start = max(clock, frontier_ms)
                if self.health.allows(dev.name, start):
                    out.append((start, clock, i))
            return out

        picks = candidates(True) or candidates(False)
        if not picks:
            return None
        start, _, i = min(picks)
        device = self.pool[i]
        self.health.admit(device.name, start)
        return device

    def _pick_hedge_device(self, frontier_ms: float,
                           exclude: set[str]) -> PooledDevice | None:
        """Next-best healthy device for a hedge: like
        :meth:`_pick_device` but strict -- excluded devices never come
        back, and a closed circuit is required (a hedge is opportunistic
        backup work, not worth spending a half-open probe slot on)."""
        out = [(max(self._clock[dev.name], frontier_ms), i)
               for i, dev in enumerate(self.pool)
               if dev.name not in exclude and self.health.allows(dev.name)
               and self.health.devices[dev.name].circuit == CLOSED]
        return self.pool[min(out)[1]] if out else None

    def _backoff_ms(self, job: SolveJob, chunk_id: int,
                    attempt: int) -> float:
        rng = np.random.default_rng(
            derive_seed(self.seed, "backoff", job.job_id, chunk_id, attempt))
        return _faults.retry_backoff_s(attempt, self.backoff_base_ms,
                                       rng=rng, cap_s=self.backoff_cap_ms)

    def _degrade(self, jobs: list[SolveJob], chunk_id: int, sub,
                 reason: str, attempts: list[ChunkAttempt],
                 frontier_ms: float,
                 missed: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> list[tuple[ChunkRecord, np.ndarray]]:
        """Run one launch's systems ``sub`` down the CPU chain (never
        raises: a chunk the chain cannot vouch for is ``failed``, not
        thrown), starting no earlier than ``frontier_ms``.

        ``missed`` is ``(x, passed)`` of a GPU launch that missed the
        per-system residual gate: its passing rows keep the GPU result,
        and only the failing rows go down the chain and are charged.
        """
        job = jobs[0]
        if missed is None:
            cpu, rows = sub, slice(None)
            x = np.empty(sub.shape, dtype=np.float64)
        else:
            rows = np.flatnonzero(~missed[1])
            cpu = sub.take(rows)
            x = np.array(missed[0], dtype=np.float64)
        with telemetry.span("serve.degrade", job=job.job_id,
                            chunk=chunk_id, reason=reason):
            report = robust_solve(cpu.a, cpu.b, cpu.c, cpu.d,
                                  chain=job.cpu_chain, engine="numpy",
                                  residual_tol=job.residual_tol,
                                  check_finite=False,
                                  raise_on_failure=False)
        cost = cpu.num_systems * cpu.n * CPU_NS_PER_UNKNOWN * 1e-6
        start = max(self._cpu_clock, frontier_ms)
        end = start + cost
        self._cpu_clock = end
        self._now_ms = max(self._now_ms, end)
        status = "degraded" if report.all_accepted else "failed"
        emit(DEGRADED_TOTAL, reason=reason)
        emit(LAUNCHES_TOTAL, device="cpu", status=status)
        emit(SERVE_CHUNK_LATENCY, cost, cls=job.slo_class, device="cpu")
        telemetry.event("serve.chunk_degraded", job=job.job_id,
                        chunk=chunk_id, reason=reason, status=status)
        x[rows] = np.atleast_2d(report.x)
        rejected = np.zeros(sub.num_systems, dtype=bool)
        rejected[rows] = [not s.accepted for s in report.systems]
        record = ChunkRecord(chunk_id=chunk_id, status=status, device="cpu",
                             attempts=attempts, start_ms=start, end_ms=end,
                             modeled_ms=cost)
        return self._share(jobs, record, x, rejected)

    @staticmethod
    def _share(jobs: list[SolveJob], record: ChunkRecord, x: np.ndarray,
               rejected: np.ndarray | None = None
               ) -> list[tuple[ChunkRecord, np.ndarray]]:
        """Each job's share of one launch: the launch's record with its
        own rows' digest, ``failed`` only if one of its rows was."""
        if len(jobs) == 1:
            record.digest = digest_array(x)
            return [(record, x)]
        out, lo = [], 0
        for job in jobs:
            hi = lo + job.systems.num_systems
            status = record.status
            if status == "failed" and not rejected[lo:hi].any():
                status = "degraded"
            out.append((replace(record, status=status,
                                attempts=list(record.attempts),
                                digest=digest_array(x[lo:hi])), x[lo:hi]))
            lo = hi
        return out

    def _advance(self, device: str, end_ms: float,
                 busy_until_ms: float | None = None) -> None:
        """Hold ``device`` until ``busy_until_ms`` (default ``end_ms``)
        and move the modeled frontier to at least ``end_ms``."""
        self._clock[device] = (end_ms if busy_until_ms is None
                               else busy_until_ms)
        self._now_ms = max(self._now_ms, end_ms)

    def _launch(self, job: SolveJob, sub, device: PooledDevice, plan,
                span: str, /, **attrs
                ) -> tuple[str, np.ndarray | None, float]:
        """One launch of chunk ``sub`` on ``device`` -- the single
        launch path of primary and hedge attempts.

        Returns ``(outcome, x, modeled_ms)``: ``"ok"`` with the
        realized cost (the cost-model time scaled by any staged
        incident's latency multiplier -- a brownout slows the device
        without faulting it); a typed fault (``"launch_error"`` /
        ``"corruption"``) with the launch-fail penalty; or
        ``"timeout"`` when the modeled watchdog kills the launch at
        ``chunk_timeout_ms``.
        """
        try:
            # The attempt span is what the sim.launch spans nest under,
            # tying kernel launches into the job's trace tree.
            with telemetry.span(span, job=job.job_id, **attrs), \
                    (_faults.inject(plan) if plan is not None
                     else nullcontext()):
                x, launch = run_kernel(
                    job.method, sub, intermediate_size=job.intermediate_size,
                    device=device.spec, layout=job.layout)
        except (_faults.DataCorruptionError,
                _faults.KernelLaunchError) as exc:
            kind = ("corruption"
                    if isinstance(exc, _faults.DataCorruptionError)
                    else "launch_error")
            return kind, None, _faults.LAUNCH_FAIL_PENALTY_MS
        cost = (self._cost_model.report(launch).total_ms
                * (plan.latency_multiplier if plan is not None else 1.0))
        if self.chunk_timeout_ms is not None and cost > self.chunk_timeout_ms:
            return "timeout", None, self.chunk_timeout_ms
        return "ok", x, cost

    def _device_failure(self, job: SolveJob, device: str, start: float,
                        kind: str, modeled_ms: float,
                        backoff_ms: float = 0.0) -> None:
        """Charge a faulted or watchdog-killed attempt to ``device``:
        clock (plus any retry backoff) and health."""
        end = start + modeled_ms
        self._advance(device, end, end + backoff_ms)
        self.health.observe_attempt(device, kind, now_ms=end,
                                    cls=job.slo_class)

    def _residual_miss(self, device: str, end_ms: float) -> None:
        """A launch whose result fails the residual gate."""
        self._advance(device, end_ms)
        self.health.observe_attempt(device, RESIDUAL, now_ms=end_ms)

    def _run_chunk(self, jobs: list[SolveJob], chunk_id: int,
                   frontier_ms: float
                   ) -> list[tuple[ChunkRecord, np.ndarray]]:
        """One launch through the full contract: readmit, place, retry,
        reroute, hedge, gate, degrade.  It runs chunk ``chunk_id`` of
        ``jobs[0]``, followed by any fused mates (:meth:`run_job`), at
        the lead's fault and telemetry coordinates; one ``(record,
        rows)`` per job."""
        job = jobs[0]
        if len(jobs) == 1:
            sub, tag = job.chunk_systems(chunk_id), {}
        else:
            sub = TridiagonalSystems(*(
                np.concatenate([getattr(j.systems, k) for j in jobs])
                for k in "abcd"))
            tag = {"jobs": [j.job_id for j in jobs]}
        # Chunk boundaries are the readmission points: quarantined
        # devices that served their dwell run their canary round here.
        self.health.maybe_readmit(self._now_ms, self._clock)
        est = self._chunk_estimate_ms(job, sub.num_systems)
        attempts: list[ChunkAttempt] = []
        failed_on: set[str] = set()
        degrade_reason = "no_healthy_device"
        for attempt in range(1 + self.max_chunk_retries):
            device = self._pick_device(frontier_ms, failed_on)
            if device is None:
                degrade_reason = "no_healthy_device"
                break
            start = max(self._clock[device.name], frontier_ms)
            plan = device.plan_for(job.job_id, chunk_id, attempt,
                                   at_ms=start)
            outcome, x, cost = self._launch(
                job, sub, device, plan, "serve.attempt", chunk=chunk_id,
                attempt=attempt, device=device.name, **tag)
            if outcome != "ok":
                # A fault backs off with seeded jitter before the
                # retry; a watchdog kill frees the device at once.
                backoff = (0.0 if outcome == "timeout"
                           else self._backoff_ms(job, chunk_id, attempt))
                self._device_failure(job, device.name, start, outcome,
                                     cost, backoff)
                emit(CHUNK_RETRIES, device=device.name, kind=outcome)
                if outcome != "timeout":
                    emit(RETRY_DELAY, backoff, cls=job.slo_class,
                         device=device.name)
                attempts.append(ChunkAttempt(
                    device=device.name, outcome=outcome, modeled_ms=cost,
                    backoff_ms=backoff))
                failed_on.add(device.name)
                continue

            passed = _relative_residuals(sub, x) <= job.residual_tol
            if bool(np.all(passed)):
                primary = _Launched(device.name, start, cost,
                                    (cost / est) if est > 0 else None, x)
                hedge = None
                if (self.hedge_ratio is not None
                        and primary.ratio is not None
                        and primary.ratio >= self.hedge_ratio):
                    hedge = self._try_hedge(job, chunk_id, attempt, sub,
                                            est, device.name, failed_on,
                                            frontier_ms, tag)
                return self._share(jobs, *self._settle_race(
                    job, chunk_id, sub, est, primary, hedge, attempts))
            # Charge the modeled time and hand the failing systems to
            # the CPU chain (which re-gates them) instead of burning
            # retries on a device that may well be healthy.
            self._residual_miss(device.name, start + cost)
            attempts.append(ChunkAttempt(
                device=device.name, outcome="residual", modeled_ms=cost))
            # The CPU re-solve needs this launch's result, so it starts
            # no earlier than the launch ends.
            return self._degrade(jobs, chunk_id, sub, "residual", attempts,
                                 start + cost, missed=(x, passed))
        else:
            degrade_reason = "retries_exhausted"
        return self._degrade(jobs, chunk_id, sub, degrade_reason, attempts,
                             frontier_ms)

    # -- hedged execution -----------------------------------------------

    def _try_hedge(self, job: SolveJob, chunk_id: int, attempt: int,
                   sub, est: float, primary: str, failed_on: set[str],
                   frontier_ms: float, tag: dict
                   ) -> _Launched | ChunkAttempt | None:
        """Launch a hedge for a slow-but-successful primary attempt.

        Returns ``None`` when no healthy device is free, the hedge's
        :class:`_Launched` result when it solved the chunk acceptably,
        else its ``hedge_failed`` attempt line (the hedge device's
        clock and health were already charged here).
        """
        dev = self._pick_hedge_device(frontier_ms, {primary} | failed_on)
        if dev is None:
            return None
        start = max(self._clock[dev.name], frontier_ms)
        plan = dev.plan_for(job.job_id, chunk_id,
                            HEDGE_ATTEMPT_BASE + attempt, at_ms=start)
        emit(HEDGES_TOTAL, device=dev.name, outcome="launched")
        telemetry.event("serve.hedge", job=job.job_id, chunk=chunk_id,
                        device=dev.name, primary=primary)
        outcome, x, cost = self._launch(job, sub, dev, plan,
                                        "serve.hedge_attempt",
                                        chunk=chunk_id, device=dev.name,
                                        **tag)
        if outcome != "ok":
            # No backoff: a failed hedge is never retried.
            self._device_failure(job, dev.name, start, outcome, cost)
        elif bool(np.all(_relative_residuals(sub, x) <= job.residual_tol)):
            return _Launched(dev.name, start, cost,
                             (cost / est) if est > 0 else None, x)
        else:
            # Not acceptable; the primary's result stands.
            self._residual_miss(dev.name, start + cost)
        emit(HEDGES_TOTAL, device=dev.name, outcome="failed")
        return ChunkAttempt(device=dev.name, outcome="hedge_failed",
                            modeled_ms=cost)

    def _cancel(self, loser: _Launched, winner_end_ms: float,
                attempts: list[ChunkAttempt]) -> None:
        """Cancel the losing side of a hedge race at the winner's
        finish line: its device is charged only the overlap and an ok
        attempt (the device did nothing wrong), and the attempt lands as
        ``hedge_cancelled``."""
        cancel_at = min(loser.end, max(loser.start, winner_end_ms))
        self._advance(loser.device, cancel_at)
        self.health.observe_attempt(loser.device, ratio=loser.ratio,
                                    now_ms=cancel_at)
        attempts.append(ChunkAttempt(
            device=loser.device, outcome="hedge_cancelled",
            modeled_ms=max(0.0, cancel_at - loser.start)))
        emit(HEDGES_TOTAL, device=loser.device, outcome="cancelled")

    def _settle_race(self, job: SolveJob, chunk_id: int, sub, est: float,
                     primary: _Launched,
                     hedge: _Launched | ChunkAttempt | None,
                     attempts: list[ChunkAttempt]
                     ) -> tuple[ChunkRecord, np.ndarray]:
        """Account an acceptable primary and its hedge, if one ran.

        The first acceptable result wins (ties go to the primary) and
        becomes the chunk; the other side is cancelled at the winner's
        finish line, and a failed hedge only adds its attempt line.
        """
        hedge_won = isinstance(hedge, _Launched) and hedge.end < primary.end
        if hedge_won:
            self._cancel(primary, hedge.end, attempts)
        win = hedge if hedge_won else primary
        end = win.end
        self._advance(win.device, end)
        self.health.observe_attempt(win.device, ratio=win.ratio, now_ms=end)
        if hedge_won:
            emit(HEDGES_TOTAL, device=win.device, outcome="won")
        emit(LAUNCHES_TOTAL, device=win.device, status="ok")
        emit(SERVE_CHUNK_LATENCY, win.cost, cls=job.slo_class,
             device=win.device)
        if telemetry.enabled() and est > 0:
            # Pair the realized modeled cost with the scheduler's
            # estimate for this chunk shape: the per-(solver, layout,
            # n) calibration residual.
            emit(COST_RESIDUAL, (win.cost - est) / est, solver=job.method,
                 layout=_residual_layout(job), n=sub.n)
        attempts.append(ChunkAttempt(
            device=win.device, outcome="ok", modeled_ms=win.cost))
        if isinstance(hedge, _Launched) and not hedge_won:
            self._cancel(hedge, end, attempts)
        elif isinstance(hedge, ChunkAttempt):
            attempts.append(hedge)
        x64 = np.asarray(win.x, dtype=np.float64)
        record = ChunkRecord(
            chunk_id=chunk_id, status="ok", device=win.device,
            attempts=attempts, start_ms=min(primary.start, win.start),
            end_ms=end, modeled_ms=win.cost)
        return record, x64

    # -- the job loop ---------------------------------------------------

    @staticmethod
    def _plan_key(job: SolveJob) -> tuple:
        """What a launch of ``job`` is planned, gated and degraded by."""
        return (job.method, job.layout, job.systems.n, job.systems.dtype,
                job.intermediate_size, job.residual_tol, job.cpu_chain)

    def _resume_state(self, job: SolveJob, resume: bool) -> ResumeState:
        journal = self.journal(resume)
        return (journal.loaded.resume_state(job) if resume and journal
                else ResumeState())

    def _fusable(self, job: SolveJob, start: float, mates, resume: bool
                 ) -> list[tuple[SolveJob, ResumeState]]:
        """The longest prefix of ``mates`` that can share one-chunk
        ``job``'s launch at ``start``: one-chunk jobs of its plan,
        committed by then, nothing to restore, all in one wave."""
        out: list[tuple[SolveJob, ResumeState]] = []
        total = job.systems.num_systems
        for mate in mates if job.num_chunks == 1 else ():
            self.resolve(mate)
            total += mate.systems.num_systems
            if (mate.num_chunks != 1
                    or self._plan_key(mate) != self._plan_key(job)
                    or self._committed.get(mate.job_id, (start,))[0] > start
                    or total > self._wave(job, total)):
                break
            state = self._resume_state(mate, resume)
            if state.after_chunk >= 0:
                break
            out.append((mate, state))
        return out

    def _open(self, job: SolveJob, state: ResumeState) -> _JobRun:
        """Start ``job``'s run: checkpoint, modeled start and trace."""
        if self._journal is not None:
            self._journal.open_job(job.job_id, state.after_chunk >= 0)
        ready, arrival = self._committed.pop(job.job_id, (self._now_ms, None))
        if state.after_chunk >= 0:
            # Resume on the job's own timeline: the suffix is placed,
            # clocked and deadline-checked from the original start.
            self._restore(state)
            ready, start = state.ready_ms, state.start_ms
        else:
            # The frontier waits for the job's commit and arrival.
            start = self._now_ms = max(self._now_ms, ready)
        trace_id, root = self._trace_context(job)
        self.slo.record_queue_wait(job.slo_class, start - ready)
        return _JobRun(job, ready, arrival, start, trace_id,
                       root.record.span_id if root is not None else None,
                       np.zeros(job.systems.shape, dtype=np.float64))

    def _chunk_done(self, run: _JobRun, chunk_id: int, record: ChunkRecord,
                    x: np.ndarray, stop_after: int | None) -> bool:
        """Book one computed chunk of ``run`` under the deadline and stop
        rules, and persist it at a barrier (every ``checkpoint_every``
        chunks and at a clean finish); ``True`` when the job stops."""
        job = run.job
        run.x[job.chunk_indices(chunk_id)] = x
        run.chunks.append(record)
        run.computed += 1
        run.since_barrier += 1
        elapsed = self._now_ms - run.start
        if job.deadline_ms is not None and elapsed > job.deadline_ms:
            run.outcome = "deadline"
            emit(DEADLINE_MISSES, job=job.job_id)
            telemetry.event("serve.deadline_miss", job=job.job_id,
                            elapsed_ms=elapsed, deadline_ms=job.deadline_ms)
        elif (job.wall_deadline_s is not None
              and time.monotonic() - run.wall_start > job.wall_deadline_s):
            run.outcome = "deadline"
            emit(DEADLINE_MISSES, job=job.job_id)
        elif stop_after is not None and run.computed >= stop_after:
            run.outcome = "stopped"
        if self._journal is not None:
            self._journal.add_chunk(job, record, x)
            if (run.since_barrier >= self.checkpoint_every
                    or (run.outcome == "ok"
                        and chunk_id == job.num_chunks - 1)):
                self._journal.barrier(
                    job.job_id, chunk_id, start_ms=run.start,
                    ready_ms=run.ready, now_ms=self._now_ms,
                    device_clocks=dict(self._clock),
                    cpu_clock_ms=self._cpu_clock,
                    health=self.health.state_dict())
                run.since_barrier = 0
        return run.outcome != "ok"

    def _close(self, run: _JobRun) -> JobReport:
        """Finish ``run``: SLO record, trace and report."""
        job = run.job
        completed = run.outcome == "ok"
        if completed and any(c.status == "failed" for c in run.chunks):
            run.outcome = "failed"
        report = JobReport(
            job_id=job.job_id, x=run.x, chunks=run.chunks,
            deadline_ms=job.deadline_ms,
            makespan_ms=self._now_ms - run.start,
            completed=completed,
            deadline_met=(run.outcome != "deadline"),
            outcome=run.outcome,
            slo_class=job.slo_class,
            tenant=job.tenant,
            queue_wait_ms=run.start - run.ready,
            trace_id=run.trace_id)
        slack = (job.deadline_ms - report.makespan_ms
                 if job.deadline_ms is not None else None)
        since = run.start if run.arrival is None else run.arrival
        self.slo.record_job(job.slo_class, self._now_ms - since, run.outcome,
                            deadline_slack_ms=slack, tenant=job.tenant)
        emit(SERVE_LATENCY, report.makespan_ms, cls=job.slo_class)
        telemetry.event("serve.job_done", job=job.job_id,
                        outcome=run.outcome,
                        makespan_ms=report.makespan_ms,
                        degraded=len(report.degraded_chunks),
                        retries=report.total_retries)
        self._close_trace(job.job_id)
        return report

    def run_job(self, job: SolveJob, *, resume: bool = False,
                stop_after: int | None = None, mates=()) -> JobReport:
        """Run one job to completion (or deadline/stop).

        ``resume=True`` restores any existing checkpoint for the job
        first; ``stop_after=N`` aborts after N computed chunks (the
        chaos suite's seam for simulating a killed run -- buffered,
        unbarriered checkpoint lines are lost exactly as a real kill
        would lose them).

        ``mates`` are further committed jobs in pick order; those that
        may share ``job``'s launch (:meth:`_fusable`) run fused with it
        as one chunk through :meth:`_run_chunk`, each keeping its own
        chunk record, journal lines, SLO record and trace.  Their reports
        are the returned report's ``mates``.
        """
        self.resolve(job)
        state = self._resume_state(job, resume)
        fused = []
        if state.after_chunk < 0:
            ready = self._committed.get(job.job_id, (self._now_ms,))[0]
            fused = self._fusable(job, max(self._now_ms, ready), mates,
                                  resume)
        group = [self._open(j, st) for j, st in [(job, state), *fused]]
        lead = group[0]
        size = ({"launch_systems": sum(r.job.systems.num_systems
                                       for r in group)} if fused else {})
        with ExitStack() as spans:
            for run in group:
                spans.enter_context(telemetry.trace_span(
                    "serve.job", trace_id=run.trace_id,
                    parent_id=run.root_id, detached=run is not lead,
                    job=run.job.job_id, cls=run.job.slo_class,
                    num_systems=run.job.systems.num_systems,
                    n=run.job.systems.n, chunks=run.job.num_chunks, **size))
            for chunk_id in range(job.num_chunks):
                if chunk_id in state.chunks:
                    record, x = state.chunks[chunk_id]
                    record.status = "restored"
                    lead.x[job.chunk_indices(chunk_id)] = x
                    lead.chunks.append(record)
                    emit(LAUNCHES_TOTAL, device=record.device,
                         status="restored")
                    continue
                with telemetry.span("serve.chunk", job=job.job_id,
                                    chunk=chunk_id):
                    done = self._run_chunk([r.job for r in group], chunk_id,
                                           lead.start)
                stops = [self._chunk_done(run, chunk_id, record, x,
                                          stop_after)
                         for run, (record, x) in zip(group, done)]
                if stops[0]:
                    break
        report = self._close(lead)
        report.mates = [self._close(run) for run in group[1:]]
        return report
