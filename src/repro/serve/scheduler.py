"""The resilient batch-solve scheduler.

:class:`BatchScheduler` runs :class:`~repro.serve.job.SolveJob`
batches: it shards each into chunks and dispatches the chunks across a
:class:`~repro.gpusim.pool.DevicePool` under a full robustness
contract.  It keeps no queue and makes no admission decision of its
own -- that is :class:`~repro.serve.frontend.ServeFrontend`'s job;
:meth:`~BatchScheduler.commit` records that a job was handed over and
:meth:`~BatchScheduler.run_job` runs it:

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
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.gpusim import faults as _faults
from repro.gpusim.gt200 import gt200_cost_model
from repro.gpusim.pool import DevicePool, PooledDevice, derive_seed
from repro.kernels.api import run_kernel
from repro.resilience.pipeline import _relative_residuals, robust_solve
from repro.telemetry.metrics import (CHUNK_RETRIES, CHUNKS_TOTAL,
                                     COST_RESIDUAL, DEADLINE_MISSES,
                                     DEGRADED_TOTAL, HEDGES_TOTAL,
                                     RETRY_DELAY, SERVE_CHUNK_LATENCY,
                                     SERVE_LATENCY, emit)
from repro.telemetry.slo import SLORegistry

from .breaker import CLOSED, OPEN, CircuitBreaker
from .checkpoint import CheckpointWriter, ResumeState, load_checkpoint
from .health import HealthMonitor, HealthPolicy
from .job import ChunkAttempt, ChunkRecord, JobReport, SolveJob, digest_array

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

    Realized chunk costs are priced with the GT200 cost model, the
    same one :meth:`estimate_job_ms` and the layout autotuner use, so
    the hedge trigger and ``estimator.cost_residual`` compare like
    with like.  SLO accounting goes to :attr:`slo`, the serve layer's
    one default-class :class:`~repro.telemetry.slo.SLORegistry`.
    """

    def __init__(self, pool: DevicePool, *,
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
        self.health = HealthMonitor(pool, policy=health_policy, seed=seed)
        self._cpu_clock = 0.0
        self._now_ms = 0.0
        self.slo = SLORegistry()
        #: job_id -> (committed-and-arrived ms, arrival ms or None).
        self._committed: dict[str, tuple[float, float | None]] = {}
        #: Per-job trace roots: job_id -> (collector, trace_id, root
        #: LiveSpan).  The root is detached (never the implicit parent
        #: of other jobs' spans) and closed when the job finishes.
        self._traces: dict[str, tuple] = {}

    @property
    def now_ms(self) -> float:
        """The modeled-time frontier: the latest completion observed."""
        return self._now_ms

    def _resolve_auto(self, job: SolveJob) -> None:
        """Resolve ``method="auto"`` into a concrete (method, layout).

        The autotuner ranks solver x layout by the analytic estimate of
        the *chunk* shape (the placement unit) on the pool's device type;
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
        parallelism over the pool.  The front end prices admission
        with it.  ``method="auto"`` jobs are resolved to the
        autotuner's (method, layout) pick first, so admission estimates
        price the placement that will run.
        """
        self._resolve_auto(job)
        return self._chunk_ms(job) * job.num_chunks / len(self.pool)

    def _chunk_ms(self, job: SolveJob) -> float:
        """One chunk's analytic price: the plan's memo entry, which a
        planned launch of the chunk is charged from too."""
        from repro.gpusim.estimator import estimate_ms
        return estimate_ms(job.method, job.systems.n,
                           min(job.chunk_size, job.systems.num_systems),
                           intermediate_size=job.intermediate_size,
                           cost_model=self._cost_model, layout=job.layout)

    def _chunk_estimate_ms(self, job: SolveJob) -> float:
        """Modeled estimate for one chunk of ``job`` (the unit the
        cost-residual telemetry compares realized chunk costs
        against)."""
        with telemetry.span("serve.estimate", job=job.job_id,
                            method=job.method):
            return self._chunk_ms(job)

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
        emit(DEGRADED_TOTAL, reason=reason)
        emit(CHUNKS_TOTAL, device="cpu", status=status)
        emit(SERVE_CHUNK_LATENCY, cost, cls=job.slo_class, device="cpu")
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
            return kind, None, LAUNCH_FAIL_PENALTY_MS
        cost = (self._cost_model.report(launch).total_ms
                * (plan.latency_multiplier if plan is not None else 1.0))
        if self.chunk_timeout_ms is not None and cost > self.chunk_timeout_ms:
            return "timeout", None, self.chunk_timeout_ms
        return "ok", x, cost

    def _device_failure(self, job: SolveJob, device: str, start: float,
                        kind: str, modeled_ms: float,
                        backoff_ms: float = 0.0) -> None:
        """Charge a faulted or watchdog-killed attempt to ``device``:
        clock (plus any retry backoff), breaker and health."""
        end = start + modeled_ms
        self._advance(device, end, end + backoff_ms)
        self._breaker_failure(self.breakers[device], end, kind, job)
        self.health.observe_attempt(device, ok=False, now_ms=end)

    def _residual_miss(self, device: str, end_ms: float) -> None:
        """A launch whose result fails the residual gate: corruption
        slipped past every detector, which is not a breaker failure."""
        self._advance(device, end_ms)
        self.health.observe_attempt(device, ok=True, ratio=None,
                                    now_ms=end_ms)

    def _run_chunk(self, job: SolveJob, chunk_id: int, frontier_ms: float
                   ) -> tuple[ChunkRecord, np.ndarray]:
        """One chunk through the full contract: readmit, place, retry,
        reroute, hedge, gate, degrade."""
        sub = job.chunk_systems(chunk_id)
        # Chunk boundaries are the readmission points: quarantined
        # devices that served their dwell run their canary round here.
        self.health.maybe_readmit(self._now_ms, self._clock)
        est = self._chunk_estimate_ms(job)
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
                attempt=attempt, device=device.name)
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

            if bool(np.all(_relative_residuals(sub, x) <= job.residual_tol)):
                primary = _Launched(device.name, start, cost,
                                    (cost / est) if est > 0 else None, x)
                hedge = None
                if (self.hedge_ratio is not None
                        and primary.ratio is not None
                        and primary.ratio >= self.hedge_ratio):
                    hedge = self._try_hedge(job, chunk_id, attempt, sub,
                                            est, device.name, failed_on,
                                            frontier_ms)
                return self._settle_race(job, chunk_id, sub, est, primary,
                                         hedge, attempts)
            # Charge the modeled time and hand the chunk to the CPU
            # chain (which re-gates per system) instead of burning
            # retries on a device that may well be healthy.
            self._residual_miss(device.name, start + cost)
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
                   frontier_ms: float) -> _Launched | ChunkAttempt | None:
        """Launch a hedge for a slow-but-successful primary attempt.

        Returns ``None`` when no healthy device is free, the hedge's
        :class:`_Launched` result when it solved the chunk acceptably,
        else its ``hedge_failed`` attempt line (the hedge device's
        breaker/clock/health were already charged here).
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
                                        chunk=chunk_id, device=dev.name)
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
        finish line: its device is charged only the overlap, its
        breaker records a success (the device did nothing wrong), and
        the attempt lands as ``hedge_cancelled``."""
        cancel_at = min(loser.end, max(loser.start, winner_end_ms))
        self._advance(loser.device, cancel_at)
        self.breakers[loser.device].record_success(cancel_at)
        self.health.observe_attempt(loser.device, ok=True,
                                    ratio=loser.ratio, now_ms=cancel_at)
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
        self.breakers[win.device].record_success(end)
        self.health.observe_attempt(win.device, ok=True, ratio=win.ratio,
                                    now_ms=end)
        if hedge_won:
            emit(HEDGES_TOTAL, device=win.device, outcome="won")
        emit(CHUNKS_TOTAL, device=win.device, status="ok")
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
            end_ms=end, modeled_ms=win.cost, digest=digest_array(x64))
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
        # The frontier waits for the job's commit and arrival.
        ready, arrival = self._committed.pop(job.job_id, (self._now_ms, None))
        job_start = self._now_ms = max(self._now_ms, ready)
        trace_id, root = self._trace_context(job)
        root_id = root.record.span_id if root is not None else None
        queue_wait = job_start - ready
        self.slo.record_queue_wait(job.slo_class, queue_wait)
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
                    emit(CHUNKS_TOTAL, device=record.device,
                         status="restored")
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
                    emit(DEADLINE_MISSES, job=job.job_id)
                    telemetry.event("serve.deadline_miss", job=job.job_id,
                                    elapsed_ms=elapsed,
                                    deadline_ms=job.deadline_ms)
                    break
                if (job.wall_deadline_s is not None
                        and time.monotonic() - wall_start
                        > job.wall_deadline_s):
                    outcome, completed = "deadline", False
                    emit(DEADLINE_MISSES, job=job.job_id)
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
        since = job_start if arrival is None else arrival
        self.slo.record_job(job.slo_class, self._now_ms - since, outcome,
                            deadline_slack_ms=slack, tenant=job.tenant)
        emit(SERVE_LATENCY, report.makespan_ms, cls=job.slo_class)
        telemetry.event("serve.job_done", job=job.job_id,
                        outcome=outcome,
                        makespan_ms=report.makespan_ms,
                        degraded=len(report.degraded_chunks),
                        retries=report.total_retries)
        self._close_trace(job.job_id)
        return report
