"""The resilient batch-solve scheduler.

:class:`BatchScheduler` takes admitted :class:`~repro.serve.job.SolveJob`
batches, shards them into chunks, and dispatches the chunks across a
:class:`~repro.gpusim.pool.DevicePool` under a full robustness
contract:

* **placement** -- each chunk goes to the least-loaded device (by the
  deterministic modeled clock) whose circuit breaker admits traffic;
  ties break by pool order, so placement is a pure function of the
  schedule so far;
* **retries + rerouting** -- a typed device fault
  (:class:`~repro.gpusim.faults.KernelLaunchError`,
  :class:`~repro.gpusim.faults.DataCorruptionError`) or a modeled
  per-chunk timeout costs the device a breaker failure and moves the
  chunk to the next healthy device after a seeded full-jitter backoff;
* **circuit breaking** -- repeated failures open the device's breaker
  (:mod:`repro.serve.breaker`); an open device receives nothing until
  its modeled cooldown elapses, then probes trickle through;
* **health lifecycle** -- a :class:`~repro.serve.health.HealthMonitor`
  scores every device from EWMA fault rate, realized-vs-modeled
  latency and breaker trip history; quarantined devices leave the
  placement set until seeded canary solves readmit them, flapping
  devices are evicted and warm spares promoted;
* **hedged chunks** -- when a chunk's realized/modeled cost ratio
  crosses ``hedge_ratio``, a deterministic hedge launches on the
  next-best healthy device; the first acceptable result wins and the
  loser is accounted as ``hedge_cancelled``;
* **graceful degradation** -- a chunk that fails its residual gate, or
  finds every breaker open, falls back to the CPU chain via
  :func:`repro.resilience.robust_solve` (``thomas`` -> ``gep`` by
  default): slower, never wrong;
* **deadlines** -- per-job modeled-time budgets (plus an optional
  wall-clock guard); a blown budget stops the job with
  ``outcome="deadline"`` and a ``serve.deadline_misses`` count instead
  of silently running forever;
* **checkpoint/resume** -- completed chunks and scheduler state are
  written as JSONL blocks (:mod:`repro.serve.checkpoint`); a killed
  run resumed with ``resume=True`` restores results bitwise and
  recomputes only the unpersisted suffix.

Everything modeled is deterministic under seeded per-device fault
profiles: two identical runs produce identical reports, digests and
metric counters, which is what the chaos suite asserts.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import telemetry
from repro.gpusim import faults as _faults
from repro.gpusim.gt200 import gt200_cost_model
from repro.gpusim.pool import DevicePool, PooledDevice, derive_seed
from repro.kernels.api import run_kernel
from repro.resilience.pipeline import _relative_residuals, robust_solve
from repro.telemetry.metrics import (record_chunk_done, record_chunk_latency,
                                     record_chunk_retry,
                                     record_cost_residual,
                                     record_deadline_miss,
                                     record_deadline_slack,
                                     record_degraded_solve, record_hedge,
                                     record_job_latency,
                                     record_queue_wait, record_retry_delay,
                                     record_shed)
from repro.telemetry.slo import SLORegistry

from .breaker import CLOSED, OPEN, CircuitBreaker
from .checkpoint import CheckpointWriter, ResumeState, load_checkpoint
from .errors import AdmissionError
from .health import HealthMonitor, HealthPolicy
from .job import ChunkAttempt, ChunkRecord, JobReport, SolveJob, digest_array
from .queue import BoundedJobQueue

#: Modeled cost of a launch attempt that dies before any block runs
#: (the driver round-trip that returned the error).
LAUNCH_FAIL_PENALTY_MS = 0.01

#: Modeled CPU-chain cost per unknown (sequential Thomas-style sweep).
CPU_NS_PER_UNKNOWN = 500.0

#: Attempt-coordinate offset for hedge fault plans.  A hedge must draw
#: a fault stream distinct from every retry of the same chunk, so its
#: plan is derived at ``HEDGE_ATTEMPT_BASE + attempt`` -- far above any
#: realistic ``max_chunk_retries``.
HEDGE_ATTEMPT_BASE = 1_000_000


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
    queue:
        Admission queue; built from ``queue_capacity`` (with this
        scheduler's modeled-cost estimator) when not given.
    failure_threshold, cooldown_ms, half_open_successes:
        Circuit-breaker configuration, shared by every device.
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
        Directory for per-job JSONL checkpoints (``None`` disables
        checkpointing); the file is ``<dir>/<job_id>.jsonl``.
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
        Lifecycle thresholds for the built-in
        :class:`~repro.serve.health.HealthMonitor` (defaults when not
        given; the monitor itself is always on).
    slo:
        SLO accounting registry (:mod:`repro.telemetry.slo`); a fresh
        default-class registry when not given.  Works with or without
        an active telemetry collector.
    """

    def __init__(self, pool: DevicePool, *,
                 queue: BoundedJobQueue | None = None,
                 queue_capacity: int = 8,
                 failure_threshold: int = 3,
                 cooldown_ms: float = 5.0,
                 half_open_successes: int = 2,
                 max_chunk_retries: int = 3,
                 chunk_timeout_ms: float | None = None,
                 backoff_base_ms: float = 0.05,
                 backoff_cap_ms: float = 2.0,
                 checkpoint_dir: str | None = None,
                 checkpoint_every: int = 4,
                 seed: int = 0,
                 cost_model=None,
                 hedge_ratio: float | None = None,
                 health_policy: HealthPolicy | None = None,
                 slo: SLORegistry | None = None):
        self.pool = pool
        self.queue = queue or BoundedJobQueue(
            queue_capacity, estimator=self.estimate_job_ms)
        self.max_chunk_retries = max(0, int(max_chunk_retries))
        self.chunk_timeout_ms = chunk_timeout_ms
        self.backoff_base_ms = backoff_base_ms
        self.backoff_cap_ms = backoff_cap_ms
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.seed = seed
        self._cost_model = cost_model or gt200_cost_model()
        self.hedge_ratio = hedge_ratio
        # Breakers and clocks cover warm spares too: promotion must
        # never change the shape of checkpointed scheduler state.
        self.breakers: dict[str, CircuitBreaker] = {
            d.name: CircuitBreaker(
                name=d.name, failure_threshold=failure_threshold,
                cooldown_ms=cooldown_ms,
                half_open_successes=half_open_successes)
            for d in pool.all_devices()}
        self._clock: dict[str, float] = {
            d.name: 0.0 for d in pool.all_devices()}
        self.health = HealthMonitor(pool, policy=health_policy, seed=seed,
                                    cost_model=self._cost_model)
        self._cpu_clock = 0.0
        self._now_ms = 0.0
        self._estimate_cache: dict[tuple, float] = {}
        self.slo = slo if slo is not None else SLORegistry()
        #: Modeled admission time per job, for queue-wait accounting.
        self._admitted_ms: dict[str, float] = {}
        #: Per-job trace roots: job_id -> (collector, trace_id, root
        #: LiveSpan).  The root is detached (never the implicit parent
        #: of other jobs' spans) and closed when the job finishes.
        self._traces: dict[str, tuple] = {}

    # -- admission ------------------------------------------------------

    def _resolve_auto(self, job: SolveJob) -> None:
        """Resolve ``method="auto"`` into a concrete (method, layout).

        The autotuner's fitted cost model ranks solver x layout for the
        *chunk* shape (the placement unit) on the pool's device type;
        the pick is written back onto the job so dispatch, estimates,
        digests and telemetry all see the resolved pair.
        """
        if job.method != "auto":
            return
        from repro.analysis.layout_autotuner import choose_layout
        device = self.pool.all_devices()[0].spec
        chunk = min(job.chunk_size, job.systems.num_systems)
        choice = choose_layout(chunk, job.systems.n, device=device)
        job.method, job.layout = choice.method, choice.layout
        telemetry.event("serve.autotune", job=job.job_id,
                        method=job.method, layout=job.layout,
                        predicted_ms=choice.predicted_ms)

    def estimate_job_ms(self, job: SolveJob) -> float:
        """Modeled lower bound for ``job`` on an idle healthy pool.

        One chunk is costed analytically (no functional execution; see
        :func:`repro.gpusim.estimator.estimate_ms`, bitwise-equal to
        the simulate-then-cost path) and the job bound is perfect
        parallelism over the pool.  Used by the queue's
        deadline-feasibility admission check.  ``method="auto"`` jobs
        are resolved to the autotuner's (method, layout) pick first,
        so admission estimates price the placement that will run.
        """
        self._resolve_auto(job)
        key = (job.method, job.layout, job.systems.n,
               min(job.chunk_size, job.systems.num_systems),
               job.intermediate_size)
        if key not in self._estimate_cache:
            from repro.gpusim.estimator import estimate_ms
            self._estimate_cache[key] = estimate_ms(
                job.method, job.systems.n, key[3],
                intermediate_size=job.intermediate_size,
                layout=job.layout)
        return self._estimate_cache[key] * job.num_chunks / len(self.pool)

    def _chunk_estimate_ms(self, job: SolveJob) -> float:
        """Modeled estimate for one chunk of ``job`` (the unit the
        cost-residual telemetry compares realized chunk costs
        against)."""
        with telemetry.span("serve.estimate", job=job.job_id,
                            method=job.method):
            self.estimate_job_ms(job)
        key = (job.method, job.layout, job.systems.n,
               min(job.chunk_size, job.systems.num_systems),
               job.intermediate_size)
        return self._estimate_cache[key]

    # -- trace context --------------------------------------------------

    def trace_id_for(self, job_id: str) -> str:
        """Deterministic trace id for a job: a pure function of the
        scheduler seed and the job id, so two identical seeded runs
        export identical traces."""
        return format(derive_seed(self.seed, "trace", job_id), "08x")

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

    def submit(self, job: SolveJob) -> None:
        """Admit ``job`` (raises a typed
        :class:`~repro.serve.errors.AdmissionError` under backpressure).

        A rejection is accounted as a *shed* against the job's SLO
        class before the error propagates."""
        trace_id, root = self._trace_context(job)
        parent = root.record.span_id if root is not None else None
        try:
            with telemetry.trace_span("serve.admit", trace_id=trace_id,
                                      parent_id=parent, job=job.job_id,
                                      cls=job.slo_class):
                self.queue.submit(job)
        except AdmissionError as exc:
            self.slo.record_shed(job.slo_class, exc.reason,
                                 tenant=job.tenant)
            record_shed(job.slo_class, exc.reason, tenant=job.tenant)
            self._close_trace(job.job_id)
            raise
        self._admitted_ms[job.job_id] = self._now_ms

    def run(self, *, resume: bool = False) -> list[JobReport]:
        """Drain the queue in FIFO order; one report per job."""
        reports = []
        while (job := self.queue.pop()) is not None:
            reports.append(self.run_job(job, resume=resume))
        return reports

    # -- scheduling internals ------------------------------------------

    def _checkpoint_path(self, job: SolveJob) -> str | None:
        if self.checkpoint_dir is None:
            return None
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        return os.path.join(self.checkpoint_dir, f"{job.job_id}.jsonl")

    def _restore(self, state: ResumeState) -> None:
        for name, ms in state.device_clocks.items():
            if name in self._clock:
                self._clock[name] = ms
        self._cpu_clock = state.cpu_clock_ms
        self._now_ms = max(self._now_ms, state.now_ms)
        for name, bstate in state.breakers.items():
            if name in self.breakers:
                self.breakers[name].load_state_dict(bstate)
        # Health last: loading re-applies spare promotions recorded in
        # the snapshot, so pool membership (and with it placement
        # order) matches the moment the barrier was written.
        if state.health:
            self.health.load_state_dict(state.health)

    def _pick_device(self, frontier_ms: float,
                     exclude: set[str]) -> PooledDevice | None:
        """Least-loaded admissible device; ``None`` when every breaker
        is open (or every device quarantined).  ``exclude`` holds
        devices that already failed this chunk -- preferred away from,
        but allowed again when they are all that is left.  Devices the
        health monitor holds in quarantine (or has evicted) are never
        candidates."""
        def candidates(skip_excluded: bool) -> list[tuple[float, int]]:
            out = []
            for i, dev in enumerate(self.pool):
                if skip_excluded and dev.name in exclude:
                    continue
                if not self.health.allows(dev.name):
                    continue
                b = self.breakers[dev.name]
                start = max(self._clock[dev.name], frontier_ms)
                if b.state == OPEN and \
                        start - b.opened_at_ms < b.cooldown_ms:
                    continue
                out.append((start, i))
            return out

        picks = candidates(True) or candidates(False)
        if not picks:
            return None
        start, i = min(picks)
        device = self.pool[i]
        # Formalise the admission (an open-but-cooled breaker moves to
        # half-open here).
        if not self.breakers[device.name].allow(start):
            return None   # pragma: no cover - guarded by the scan above
        return device

    def _pick_hedge_device(self, frontier_ms: float,
                           exclude: set[str]) -> PooledDevice | None:
        """Next-best healthy device for a hedge: like
        :meth:`_pick_device` but strict -- excluded devices never come
        back, and a closed breaker is required (a hedge is opportunistic
        backup work, not worth spending a half-open probe slot on)."""
        out = []
        for i, dev in enumerate(self.pool):
            if dev.name in exclude:
                continue
            if not self.health.allows(dev.name):
                continue
            if self.breakers[dev.name].state != CLOSED:
                continue
            out.append((max(self._clock[dev.name], frontier_ms), i))
        if not out:
            return None
        return self.pool[min(out)[1]]

    def _backoff_ms(self, job: SolveJob, chunk_id: int,
                    attempt: int) -> float:
        rng = np.random.default_rng(
            derive_seed(self.seed, "backoff", job.job_id, chunk_id, attempt))
        return _faults.retry_backoff_s(attempt, self.backoff_base_ms,
                                       rng=rng, cap_s=self.backoff_cap_ms)

    def _degrade(self, job: SolveJob, chunk_id: int, reason: str,
                 attempts: list[ChunkAttempt], frontier_ms: float
                 ) -> tuple[ChunkRecord, np.ndarray]:
        """Run one chunk down the CPU chain (never raises: a chunk the
        chain cannot vouch for is reported ``failed``, not thrown)."""
        sub = job.chunk_systems(chunk_id)
        with telemetry.span("serve.degrade", job=job.job_id,
                            chunk=chunk_id, reason=reason):
            report = robust_solve(sub.a, sub.b, sub.c, sub.d,
                                  chain=job.cpu_chain, engine="numpy",
                                  residual_tol=job.residual_tol,
                                  check_finite=False,
                                  raise_on_failure=False)
        cost = sub.num_systems * sub.n * CPU_NS_PER_UNKNOWN * 1e-6
        start = max(self._cpu_clock, frontier_ms)
        end = start + cost
        self._cpu_clock = end
        self._now_ms = max(self._now_ms, end)
        status = "degraded" if report.all_accepted else "failed"
        record_degraded_solve(reason)
        record_chunk_done("cpu", status)
        record_chunk_latency(cost, job.slo_class, "cpu")
        telemetry.event("serve.chunk_degraded", job=job.job_id,
                        chunk=chunk_id, reason=reason, status=status)
        x = np.asarray(np.atleast_2d(report.x), dtype=np.float64)
        record = ChunkRecord(chunk_id=chunk_id, status=status, device="cpu",
                             attempts=attempts, start_ms=start, end_ms=end,
                             modeled_ms=cost, digest=digest_array(x))
        return record, x

    def _breaker_failure(self, breaker: CircuitBreaker, end_ms: float,
                         kind: str, job: SolveJob) -> None:
        """Charge a breaker failure and attribute a resulting trip
        (closed/half-open -> open) to the job's SLO class."""
        was_open = breaker.state == OPEN
        breaker.record_failure(end_ms, kind)
        if breaker.state == OPEN and not was_open:
            self.slo.record_breaker_trip(job.slo_class, breaker.name)
            telemetry.event("serve.breaker_trip", device=breaker.name,
                            cls=job.slo_class, kind=kind)
            # Repeated trips in a short window read as a flap; the
            # monitor may quarantine the device outright.
            self.health.note_trip(breaker.name, breaker, end_ms)

    def _run_chunk(self, job: SolveJob, chunk_id: int, frontier_ms: float
                   ) -> tuple[ChunkRecord, np.ndarray]:
        """One chunk through the full contract: readmit, place, retry,
        reroute, hedge, gate, degrade."""
        sub = job.chunk_systems(chunk_id)
        # Chunk boundaries are the readmission points: quarantined
        # devices that served their dwell run their canary round here.
        self.health.maybe_readmit(max(self._now_ms, frontier_ms),
                                  self._clock)
        est = self._chunk_estimate_ms(job)
        attempts: list[ChunkAttempt] = []
        failed_on: set[str] = set()
        degrade_reason = "no_healthy_device"
        for attempt in range(1 + self.max_chunk_retries):
            device = self._pick_device(frontier_ms, failed_on)
            if device is None:
                degrade_reason = "no_healthy_device"
                break
            breaker = self.breakers[device.name]
            start = max(self._clock[device.name], frontier_ms)
            plan = device.plan_for(job.job_id, chunk_id, attempt,
                                   at_ms=start)
            try:
                # The attempt span is what the sim.launch spans nest
                # under, tying kernel launches into the job's trace
                # tree.
                with telemetry.span("serve.attempt", job=job.job_id,
                                    chunk=chunk_id, attempt=attempt,
                                    device=device.name):
                    if plan is not None:
                        with _faults.inject(plan):
                            x, launch = run_kernel(
                                job.method, sub,
                                intermediate_size=job.intermediate_size,
                                device=device.spec, layout=job.layout)
                    else:
                        x, launch = run_kernel(
                            job.method, sub,
                            intermediate_size=job.intermediate_size,
                            device=device.spec, layout=job.layout)
            except (_faults.DataCorruptionError,
                    _faults.KernelLaunchError) as exc:
                kind = ("corruption"
                        if isinstance(exc, _faults.DataCorruptionError)
                        else "launch_error")
                backoff = self._backoff_ms(job, chunk_id, attempt)
                end = start + LAUNCH_FAIL_PENALTY_MS
                self._clock[device.name] = end + backoff
                self._now_ms = max(self._now_ms, end)
                self._breaker_failure(breaker, end, kind, job)
                self.health.observe_attempt(device.name, ok=False,
                                            now_ms=end)
                record_chunk_retry(device.name, kind)
                record_retry_delay(backoff, job.slo_class, device.name)
                attempts.append(ChunkAttempt(
                    device=device.name, outcome=kind,
                    modeled_ms=LAUNCH_FAIL_PENALTY_MS, backoff_ms=backoff))
                failed_on.add(device.name)
                continue

            # Realized cost: the cost-model time of the launch, scaled
            # by any staged incident's latency multiplier (a brownout
            # slows the device without faulting it).
            cost = (self._cost_model.report(launch).total_ms
                    * (plan.latency_multiplier if plan is not None else 1.0))
            if (self.chunk_timeout_ms is not None
                    and cost > self.chunk_timeout_ms):
                # The watchdog kills the launch at the timeout mark.
                end = start + self.chunk_timeout_ms
                self._clock[device.name] = end
                self._now_ms = max(self._now_ms, end)
                self._breaker_failure(breaker, end, "timeout", job)
                self.health.observe_attempt(device.name, ok=False,
                                            now_ms=end)
                record_chunk_retry(device.name, "timeout")
                attempts.append(ChunkAttempt(
                    device=device.name, outcome="timeout",
                    modeled_ms=self.chunk_timeout_ms))
                failed_on.add(device.name)
                continue

            rel = _relative_residuals(sub, x)
            if bool(np.all(rel <= job.residual_tol)):
                end = start + cost
                ratio = (cost / est) if est > 0 else None
                hedge = None
                if (self.hedge_ratio is not None and ratio is not None
                        and ratio >= self.hedge_ratio):
                    hedge = self._try_hedge(job, chunk_id, attempt, sub,
                                            est, device.name, failed_on,
                                            frontier_ms)
                if (hedge is not None and hedge["ok"]
                        and hedge["end"] < end):
                    return self._hedge_wins(job, chunk_id, attempts,
                                            device, breaker, start, end,
                                            ratio, hedge, sub, est)
                # Primary wins (ties go to the primary) or no hedge ran.
                self._clock[device.name] = end
                self._now_ms = max(self._now_ms, end)
                breaker.record_success(end)
                self.health.observe_attempt(device.name, ok=True,
                                            ratio=ratio, now_ms=end)
                record_chunk_done(device.name, "ok")
                record_chunk_latency(cost, job.slo_class, device.name)
                if telemetry.enabled() and est > 0:
                    # Pair the realized modeled cost with the
                    # scheduler's estimate for this chunk shape: the
                    # per-(solver, layout, n) calibration residual.
                    record_cost_residual(job.method,
                                         _residual_layout(job), sub.n,
                                         (cost - est) / est)
                attempts.append(ChunkAttempt(
                    device=device.name, outcome="ok", modeled_ms=cost))
                if hedge is not None:
                    self._settle_losing_hedge(hedge, end, attempts)
                x64 = np.asarray(x, dtype=np.float64)
                record = ChunkRecord(
                    chunk_id=chunk_id, status="ok", device=device.name,
                    attempts=attempts, start_ms=start, end_ms=end,
                    modeled_ms=cost, digest=digest_array(x64))
                return record, x64
            # A residual miss means corruption slipped past every
            # detector: charge the modeled time, hand the chunk to the
            # CPU chain (which re-gates per system) instead of burning
            # retries on a device that may well be healthy.
            end = start + cost
            self._clock[device.name] = end
            self._now_ms = max(self._now_ms, end)
            self.health.observe_attempt(device.name, ok=True, ratio=None,
                                        now_ms=end)
            attempts.append(ChunkAttempt(
                device=device.name, outcome="residual", modeled_ms=cost))
            degrade_reason = "residual"
            break
        else:
            degrade_reason = "retries_exhausted"
        return self._degrade(job, chunk_id, degrade_reason, attempts,
                             frontier_ms)

    # -- hedged execution -----------------------------------------------

    def _try_hedge(self, job: SolveJob, chunk_id: int, attempt: int,
                   sub, est: float, primary: str, failed_on: set[str],
                   frontier_ms: float) -> dict | None:
        """Launch a hedge for a slow-but-successful primary attempt.

        Returns ``None`` when no healthy device is free, else a dict:
        ``ok=True`` carries the hedge result (device, start/end, cost,
        ratio, x), ``ok=False`` carries the already-settled failure
        record (the hedge device's breaker/clock/health were charged
        here; the caller only appends the attempt line).
        """
        dev = self._pick_hedge_device(frontier_ms, {primary} | failed_on)
        if dev is None:
            return None
        breaker = self.breakers[dev.name]
        start = max(self._clock[dev.name], frontier_ms)
        plan = dev.plan_for(job.job_id, chunk_id,
                            HEDGE_ATTEMPT_BASE + attempt, at_ms=start)
        record_hedge(dev.name, "launched")
        telemetry.event("serve.hedge", job=job.job_id, chunk=chunk_id,
                        device=dev.name, primary=primary)
        try:
            with telemetry.span("serve.hedge_attempt", job=job.job_id,
                                chunk=chunk_id, device=dev.name):
                if plan is not None:
                    with _faults.inject(plan):
                        x, launch = run_kernel(
                            job.method, sub,
                            intermediate_size=job.intermediate_size,
                            device=dev.spec, layout=job.layout)
                else:
                    x, launch = run_kernel(
                        job.method, sub,
                        intermediate_size=job.intermediate_size,
                        device=dev.spec, layout=job.layout)
        except (_faults.DataCorruptionError,
                _faults.KernelLaunchError) as exc:
            kind = ("corruption"
                    if isinstance(exc, _faults.DataCorruptionError)
                    else "launch_error")
            end = start + LAUNCH_FAIL_PENALTY_MS
            self._clock[dev.name] = end
            self._now_ms = max(self._now_ms, end)
            self._breaker_failure(breaker, end, kind, job)
            self.health.observe_attempt(dev.name, ok=False, now_ms=end)
            record_hedge(dev.name, "failed")
            return {"ok": False, "attempt": ChunkAttempt(
                device=dev.name, outcome="hedge_failed",
                modeled_ms=LAUNCH_FAIL_PENALTY_MS)}
        cost = (self._cost_model.report(launch).total_ms
                * (plan.latency_multiplier if plan is not None else 1.0))
        if (self.chunk_timeout_ms is not None
                and cost > self.chunk_timeout_ms):
            end = start + self.chunk_timeout_ms
            self._clock[dev.name] = end
            self._now_ms = max(self._now_ms, end)
            self._breaker_failure(breaker, end, "timeout", job)
            self.health.observe_attempt(dev.name, ok=False, now_ms=end)
            record_hedge(dev.name, "failed")
            return {"ok": False, "attempt": ChunkAttempt(
                device=dev.name, outcome="hedge_failed",
                modeled_ms=self.chunk_timeout_ms)}
        rel = _relative_residuals(sub, x)
        if not bool(np.all(rel <= job.residual_tol)):
            # Not acceptable -- but also not a device fault; the
            # primary's result stands and no breaker is charged.
            end = start + cost
            self._clock[dev.name] = end
            self._now_ms = max(self._now_ms, end)
            self.health.observe_attempt(dev.name, ok=True, ratio=None,
                                        now_ms=end)
            record_hedge(dev.name, "failed")
            return {"ok": False, "attempt": ChunkAttempt(
                device=dev.name, outcome="hedge_failed", modeled_ms=cost)}
        return {"ok": True, "device": dev, "breaker": breaker,
                "start": start, "end": start + cost, "cost": cost,
                "ratio": (cost / est) if est > 0 else None, "x": x}

    def _settle_losing_hedge(self, hedge: dict, winner_end_ms: float,
                             attempts: list[ChunkAttempt]) -> None:
        """Account a hedge that lost the race (or failed outright).

        A losing-but-healthy hedge is *cancelled* at the winner's
        finish line: its device is charged only the overlap, its
        breaker records a success (the device did nothing wrong), and
        the attempt lands as ``hedge_cancelled``.
        """
        if not hedge["ok"]:
            attempts.append(hedge["attempt"])
            return
        dev = hedge["device"]
        cancel_at = min(hedge["end"], max(hedge["start"], winner_end_ms))
        self._clock[dev.name] = cancel_at
        self._now_ms = max(self._now_ms, cancel_at)
        hedge["breaker"].record_success(cancel_at)
        self.health.observe_attempt(dev.name, ok=True,
                                    ratio=hedge["ratio"],
                                    now_ms=cancel_at)
        attempts.append(ChunkAttempt(
            device=dev.name, outcome="hedge_cancelled",
            modeled_ms=max(0.0, cancel_at - hedge["start"])))
        record_hedge(dev.name, "cancelled")

    def _hedge_wins(self, job: SolveJob, chunk_id: int,
                    attempts: list[ChunkAttempt], primary_dev,
                    primary_breaker, primary_start: float,
                    primary_end: float, primary_ratio: float | None,
                    hedge: dict, sub, est: float
                    ) -> tuple[ChunkRecord, np.ndarray]:
        """The hedge beat the primary: the primary is cancelled at the
        hedge's finish line and the hedge result becomes the chunk."""
        h_end = hedge["end"]
        cancel_at = min(primary_end, max(primary_start, h_end))
        self._clock[primary_dev.name] = cancel_at
        self._now_ms = max(self._now_ms, cancel_at)
        primary_breaker.record_success(cancel_at)
        self.health.observe_attempt(primary_dev.name, ok=True,
                                    ratio=primary_ratio, now_ms=cancel_at)
        attempts.append(ChunkAttempt(
            device=primary_dev.name, outcome="hedge_cancelled",
            modeled_ms=max(0.0, cancel_at - primary_start)))
        record_hedge(primary_dev.name, "cancelled")

        dev = hedge["device"]
        self._clock[dev.name] = h_end
        self._now_ms = max(self._now_ms, h_end)
        hedge["breaker"].record_success(h_end)
        self.health.observe_attempt(dev.name, ok=True,
                                    ratio=hedge["ratio"], now_ms=h_end)
        record_hedge(dev.name, "won")
        record_chunk_done(dev.name, "ok")
        record_chunk_latency(hedge["cost"], job.slo_class, dev.name)
        if telemetry.enabled() and est > 0:
            record_cost_residual(job.method, _residual_layout(job), sub.n,
                                 (hedge["cost"] - est) / est)
        attempts.append(ChunkAttempt(
            device=dev.name, outcome="ok", modeled_ms=hedge["cost"]))
        x64 = np.asarray(hedge["x"], dtype=np.float64)
        record = ChunkRecord(
            chunk_id=chunk_id, status="ok", device=dev.name,
            attempts=attempts,
            start_ms=min(primary_start, hedge["start"]), end_ms=h_end,
            modeled_ms=hedge["cost"], digest=digest_array(x64))
        return record, x64

    # -- the job loop ---------------------------------------------------

    def run_job(self, job: SolveJob, *, resume: bool = False,
                stop_after: int | None = None) -> JobReport:
        """Run one job to completion (or deadline/stop).

        ``resume=True`` restores any existing checkpoint for the job
        first; ``stop_after=N`` aborts after N computed chunks (the
        chaos suite's seam for simulating a killed run -- buffered,
        unbarriered checkpoint lines are lost exactly as a real kill
        would lose them).
        """
        self._resolve_auto(job)
        restored: dict[int, tuple[ChunkRecord, np.ndarray]] = {}
        path = self._checkpoint_path(job)
        resuming = False
        if resume and path is not None and os.path.exists(path):
            state = load_checkpoint(path, job)
            self._restore(state)
            restored = state.chunks
            resuming = True

        writer = (CheckpointWriter(path, job, resume=resuming)
                  if path is not None else None)
        x_out = np.zeros(job.systems.shape, dtype=np.float64)
        chunks: list[ChunkRecord] = []
        job_start = self._now_ms
        trace_id, root = self._trace_context(job)
        root_id = root.record.span_id if root is not None else None
        queue_wait = max(
            0.0, job_start - self._admitted_ms.pop(job.job_id, job_start))
        self.slo.record_queue_wait(job.slo_class, queue_wait)
        record_queue_wait(queue_wait, job.slo_class)
        wall_start = time.monotonic()
        outcome = "ok"
        completed = True
        since_barrier = 0
        computed = 0

        def barrier(after_chunk: int) -> None:
            if writer is not None:
                writer.barrier(
                    after_chunk, now_ms=self._now_ms,
                    device_clocks=dict(self._clock),
                    cpu_clock_ms=self._cpu_clock,
                    breakers={n: b.state_dict()
                              for n, b in self.breakers.items()},
                    health=self.health.state_dict())

        with telemetry.trace_span("serve.job", trace_id=trace_id,
                                  parent_id=root_id, job=job.job_id,
                                  cls=job.slo_class,
                                  num_systems=job.systems.num_systems,
                                  n=job.systems.n, chunks=job.num_chunks):
            for chunk_id in range(job.num_chunks):
                if chunk_id in restored:
                    record, x = restored[chunk_id]
                    record.status = "restored"
                    x_out[job.chunk_indices(chunk_id)] = x
                    chunks.append(record)
                    record_chunk_done(record.device, "restored")
                    continue
                with telemetry.span("serve.chunk", job=job.job_id,
                                    chunk=chunk_id):
                    record, x = self._run_chunk(job, chunk_id, job_start)
                x_out[job.chunk_indices(chunk_id)] = x
                chunks.append(record)
                computed += 1
                since_barrier += 1
                if writer is not None:
                    writer.add_chunk(record, x)
                if since_barrier >= self.checkpoint_every:
                    barrier(chunk_id)
                    since_barrier = 0
                elapsed = self._now_ms - job_start
                if (job.deadline_ms is not None
                        and elapsed > job.deadline_ms):
                    outcome, completed = "deadline", False
                    record_deadline_miss(job.job_id)
                    telemetry.event("serve.deadline_miss", job=job.job_id,
                                    elapsed_ms=elapsed,
                                    deadline_ms=job.deadline_ms)
                    break
                if (job.wall_deadline_s is not None
                        and time.monotonic() - wall_start
                        > job.wall_deadline_s):
                    outcome, completed = "deadline", False
                    record_deadline_miss(job.job_id)
                    break
                if stop_after is not None and computed >= stop_after:
                    outcome, completed = "stopped", False
                    break
            else:
                # Clean completion: persist the final (possibly
                # partial-interval) block.
                if since_barrier and job.num_chunks:
                    barrier(job.num_chunks - 1)
        if writer is not None:
            writer.close()

        if completed and any(c.status == "failed" for c in chunks):
            outcome = "failed"
        report = JobReport(
            job_id=job.job_id, x=x_out, chunks=chunks,
            deadline_ms=job.deadline_ms,
            makespan_ms=self._now_ms - job_start,
            completed=completed,
            deadline_met=(outcome != "deadline"),
            outcome=outcome,
            slo_class=job.slo_class,
            tenant=job.tenant,
            queue_wait_ms=queue_wait,
            trace_id=trace_id)
        slack = (job.deadline_ms - report.makespan_ms
                 if job.deadline_ms is not None else None)
        self.slo.record_job(job.slo_class, report.makespan_ms, outcome,
                            deadline_slack_ms=slack)
        record_job_latency(report.makespan_ms, job.slo_class)
        if slack is not None:
            record_deadline_slack(slack, job.slo_class)
        telemetry.event("serve.job_done", job=job.job_id,
                        outcome=outcome,
                        makespan_ms=report.makespan_ms,
                        degraded=len(report.degraded_chunks),
                        retries=report.total_retries)
        self._close_trace(job.job_id)
        return report
