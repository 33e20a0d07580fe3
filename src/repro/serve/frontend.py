"""Multi-tenant serving front end: admission, quotas, fair queueing,
bounded backpressure and SLO-aware load shedding.

The long-running layer on top of
:class:`~repro.serve.scheduler.BatchScheduler`, and every ``repro
serve`` run goes through it.  Requests from named tenants flow
through a fixed decision pipeline::

    resume replay -> tenant quota -> cost-model admission -> capacity

* **Resume replay** -- a request the service already shed (a ``shed``
  line of the session journal, :mod:`~repro.serve.checkpoint`) is shed
  again with its original reason instead of re-admitted.
* **Quota** -- a per-tenant :class:`~repro.serve.quota.TokenBucket`
  denominated in modeled milliseconds of solver work; denial is
  atomic, so it never perturbs state downstream runs depend on.
* **Admission** -- the scheduler's cost model predicts
  ``stale + backlog-at-or-above-class + own cost``; a request whose
  prediction exceeds its class deadline at current utilization is
  *downgraded* to the next looser class (when allowed) or shed as
  ``deadline_unmeetable``.
* **Capacity** -- the pending buffer is bounded; overflow sheds
  strictly by class, batch before standard before interactive,
  evicting the latest-virtual-finish request of the lowest class.

Inside one class, tenants share capacity by weighted fair queueing
(:class:`~repro.serve.quota.WeightedFairQueue`); across classes the
dispatcher is strict-priority.  The front end is the only admission
authority: the scheduler keeps no queue of its own.  Its commit
window is a hand-off of at most :data:`HANDOFF_DEPTH` requests
committed to the scheduler (:meth:`BatchScheduler.commit`) ahead of
execution; a committed request can no longer be shed.

Everything runs on the modeled clock, so a seeded request stream
(:mod:`repro.serve.loadgen`) drives bitwise-identical overload runs
under :func:`repro.telemetry.deterministic_collector`.
:class:`AsyncServeFrontend` wraps the same deterministic core in an
asyncio service interface for streaming clients.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field

from repro import telemetry
from repro.solvers.systems import TridiagonalSystems
from repro.telemetry.metrics import (DOWNGRADES, FRONTEND_DEPTH,
                                     FRONTEND_REQUESTS, QUOTA_DENIED,
                                     QUOTA_TOKENS, REQUEST_LATENCY, emit)
from repro.telemetry.slo import DEFAULT_CLASS, DEFAULT_CLASSES

from .job import JobReport, SolveJob
from .quota import TenantSpec, TokenBucket, WeightedFairQueue
from .scheduler import BatchScheduler

#: Requests committed to the scheduler ahead of execution (no longer
#: sheddable).  Small on purpose: a deep hand-off commits low-class
#: work the shedder can no longer evict, which is how interactive
#: requests end up shed under burst overload.
HANDOFF_DEPTH = 2


@dataclass(frozen=True)
class ServeRequest:
    """One tenant request: a batch of systems plus service intent.

    ``arrival_ms`` is the modeled arrival time; the front end measures
    latency from arrival to completion, so queueing delay counts
    against the SLO exactly as a client would experience it.
    """

    request_id: str
    tenant: str
    systems: TridiagonalSystems
    arrival_ms: float = 0.0
    method: str = "cr_pcr"
    #: Optional cap on systems per chunk (``None``: the scheduler's
    #: one-wave chunk, see :attr:`SolveJob.chunk_size`).
    chunk_size: int | None = None
    slo_class: str = DEFAULT_CLASS
    #: Optional per-request modeled deadline; defaults to the class
    #: p99 objective for admission math and stays off the job itself.
    deadline_ms: float | None = None


@dataclass
class RequestOutcome:
    """Final disposition of one request."""

    request_id: str
    tenant: str
    #: Class the request finished under (post-downgrade).
    slo_class: str
    #: ``completed`` | ``shed``
    state: str
    arrival_ms: float
    finish_ms: float
    latency_ms: float = 0.0
    report: JobReport | None = None
    #: Shed attribution (state == "shed"): typed reason plus the
    #: pipeline stage that decided (quota/admission/capacity/resume).
    reason: str | None = None
    stage: str | None = None

    def to_dict(self) -> dict:
        out = {
            "request_id": self.request_id, "tenant": self.tenant,
            "slo_class": self.slo_class, "state": self.state,
            "arrival_ms": self.arrival_ms, "finish_ms": self.finish_ms,
            "latency_ms": self.latency_ms,
        }
        if self.state == "shed":
            out["reason"] = self.reason
            out["stage"] = self.stage
        else:
            out["report"] = (self.report.to_dict()
                             if self.report is not None else None)
        return out


@dataclass(frozen=True)
class FrontendConfig:
    """Tuning knobs of the admission pipeline (see
    docs/robustness.md, "Overload & multi-tenancy")."""

    #: Bound on requests admitted but not yet finished (WFQ backlog
    #: plus the hand-off).
    pending_capacity: int = 24
    #: Headroom factor on the admission prediction: predictions are
    #: approximate.
    admission_slack: float = 1.25
    #: Downgrade to the next looser class instead of shedding when the
    #: prediction misses the deadline but a looser class would admit.
    allow_downgrade: bool = True

    def __post_init__(self) -> None:
        if self.pending_capacity < 1:
            raise ValueError("pending_capacity must be >= 1")
        if self.admission_slack <= 0:
            raise ValueError("admission_slack must be > 0")


@dataclass
class _Pending:
    request: ServeRequest
    job: SolveJob
    cost_ms: float
    cls: str                      # effective class (post-downgrade)


@dataclass
class FrontendReport:
    """Roll-up of one front-end run."""

    outcomes: list[RequestOutcome] = field(default_factory=list)
    slo_snapshot: dict = field(default_factory=dict)
    quota_denied: dict[str, int] = field(default_factory=dict)
    downgrades: int = 0
    now_ms: float = 0.0

    @property
    def completed(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if o.state == "completed"]

    @property
    def shed(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if o.state == "shed"]

    def shed_set(self) -> list[tuple[str, str, str]]:
        """Sorted ``(request_id, cls, reason)`` -- the determinism
        anchor the acceptance tests compare bitwise."""
        return sorted((o.request_id, o.slo_class, o.reason or "")
                      for o in self.shed)

    def shed_by_class(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for o in self.shed:
            out[o.slo_class] = out.get(o.slo_class, 0) + 1
        return dict(sorted(out.items()))

    def latency_report(self) -> dict:
        """Per-class latency percentiles (the artifact CI uploads)."""
        out = {}
        for cls, snap in self.slo_snapshot.items():
            out[cls] = {
                "count": snap["latency_ms"].get("count", 0),
                "p50": snap["latency_ms"].get("p50"),
                "p95": snap["latency_ms"].get("p95"),
                "p99": snap["latency_ms"].get("p99"),
                "objective_p99_ms": snap["latency_p99_objective_ms"],
                "shed": snap["shed"],
                "jobs": snap["jobs"],
            }
        return out

    def to_dict(self) -> dict:
        return {
            "format": "repro.serve.frontend/v1",
            "requests": len(self.outcomes),
            "completed": len(self.completed),
            "shed": len(self.shed),
            "shed_by_class": self.shed_by_class(),
            "shed_set": [list(t) for t in self.shed_set()],
            "downgrades": self.downgrades,
            "quota_denied": dict(sorted(self.quota_denied.items())),
            "now_ms": self.now_ms,
            "slo": self.slo_snapshot,
            "latency": self.latency_report(),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


class ServeFrontend:
    """Deterministic multi-tenant admission core.

    Drive it either open-loop (:meth:`run` over a prepared request
    stream, the loadgen/CLI/benchmark path) or incrementally
    (:meth:`offer` + :meth:`dispatch_once`, the asyncio path and the
    one-shot ``repro serve``).  Both paths share every decision rule,
    so the asyncio service sheds exactly like the reproducible
    open-loop runs do.

    It keeps no clock or SLO registry: :attr:`now_ms` and :attr:`slo`
    are the scheduler's, which starts each job at its arrival
    (:meth:`BatchScheduler.commit`) and records it when it finishes.

    ``resume`` and ``stop_after`` are forwarded to every
    :meth:`BatchScheduler.run_job` call (restore checkpoints first;
    stop each job after N computed chunks); sheds go to the scheduler's
    journal (:meth:`BatchScheduler.journal`), opened with ``resume``.
    """

    def __init__(self, scheduler: BatchScheduler,
                 tenants: list[TenantSpec] | None = None, *,
                 config: FrontendConfig | None = None,
                 resume: bool = False,
                 stop_after: int | None = None):
        self.scheduler = scheduler
        self.config = config or FrontendConfig()
        self.slo = scheduler.slo
        self._tenants: dict[str, TenantSpec] = {}
        self._buckets: dict[str, TokenBucket] = {}
        for spec in tenants or []:
            self.add_tenant(spec)
        self._queues: dict[str, WeightedFairQueue] = {}
        for cls in DEFAULT_CLASSES:
            self._queues[cls.name] = WeightedFairQueue()
        self._handoff: deque[_Pending] = deque()
        #: Outcomes of fused requests, for the next dispatch_once calls.
        self._fused: deque[RequestOutcome] = deque()
        self._resume = resume
        self._stop_after = stop_after
        self.outcomes: dict[str, RequestOutcome] = {}
        self._order: list[str] = []
        self.downgrades = 0
        self.quota_denied: dict[str, int] = {}
        self._journal = scheduler.journal(resume)

    @property
    def now_ms(self) -> float:
        """The scheduler's modeled frontier, the only serve clock."""
        return self.scheduler.now_ms

    # -- tenants -------------------------------------------------------

    def add_tenant(self, spec: TenantSpec) -> None:
        self._tenants[spec.name] = spec
        self._buckets[spec.name] = TokenBucket(
            spec.quota_rate, spec.quota_burst, start_ms=self.now_ms)

    def _spec(self, name: str) -> TenantSpec:
        spec = self._tenants.get(name)
        if spec is None:
            # Unknown tenants auto-register unlimited at weight 1 --
            # they show up in the report, they don't crash the service.
            spec = TenantSpec(name)
            self.add_tenant(spec)
        return spec

    # -- class ordering ------------------------------------------------

    def _class_order(self) -> list[str]:
        """Class names, tightest latency objective first."""
        return sorted(self._queues,
                      key=lambda c: (self.slo.slo_for(c).latency_p99_ms, c))

    def _queue_for(self, cls: str) -> WeightedFairQueue:
        q = self._queues.get(cls)
        if q is None:
            q = self._queues[cls] = WeightedFairQueue()
        return q

    def _objective_ms(self, cls: str) -> float:
        return self.slo.slo_for(cls).latency_p99_ms

    # -- state ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted but not yet finished (WFQ + hand-off)."""
        return (sum(len(q) for q in self._queues.values())
                + len(self._handoff))

    def _backlog_ms(self, cls: str) -> float:
        """Modeled cost queued at or above ``cls`` priority -- the
        work this request must wait behind under strict-priority
        dispatch (committed hand-off jobs always count)."""
        deadline = self._objective_ms(cls)
        total = sum(p.cost_ms for p in self._handoff)
        for name, q in self._queues.items():
            if self._objective_ms(name) <= deadline:
                total += sum(p.cost_ms for p in q.items())
        return total

    # -- the admission pipeline ----------------------------------------

    def offer(self, request: ServeRequest) -> RequestOutcome | None:
        """Run one request through the pipeline.

        Returns the outcome when the request was decided immediately
        (shed at any stage), ``None`` when it was queued.
        """
        arrival = max(request.arrival_ms, 0.0)
        spec = self._spec(request.tenant)
        self._queue_for(request.slo_class)   # register custom classes
        job = SolveJob(
            request.request_id, request.systems, method=request.method,
            chunk_size=request.chunk_size, deadline_ms=request.deadline_ms,
            slo_class=request.slo_class, tenant=request.tenant)
        cost = self.scheduler.estimate_job_ms(job)
        pend = _Pending(request, job, cost, request.slo_class)

        # 1. resume replay: once shed, never re-admitted.
        if (self._journal is not None
                and request.request_id in self._journal.sheds):
            return self._shed(
                pend, self._journal.sheds[request.request_id]["reason"],
                "resume")

        # 2. per-tenant token-bucket quota (modeled-ms of work).
        bucket = self._buckets[spec.name]
        if not bucket.try_take(cost, arrival):
            self.quota_denied[spec.name] = (
                self.quota_denied.get(spec.name, 0) + 1)
            emit(QUOTA_DENIED, tenant=spec.name)
            return self._shed(pend, "quota", "quota")
        emit(QUOTA_TOKENS, bucket.peek(arrival), tenant=spec.name)

        # 3. cost-model admission at current utilization, with
        #    downgrade before shed.
        cls = self._admit_class(pend, arrival)
        if cls is None:
            bucket.refund(cost)
            return self._shed(pend, "deadline_unmeetable", "admission")
        if cls != request.slo_class:
            self.downgrades += 1
            emit(DOWNGRADES, **{"tenant": spec.name,
                                "from": request.slo_class, "to": cls})
            telemetry.event("serve.downgrade", request=request.request_id,
                            tenant=spec.name, frm=request.slo_class, to=cls)
            pend.cls = cls
            pend.job.slo_class = cls

        # 4. bounded pending buffer: overflow sheds strictly by class.
        self._queue_for(pend.cls).push(
            pend, tenant=spec.name, weight=spec.weight, cost=cost)
        evicted = None
        while self.pending > self.config.pending_capacity:
            evicted = self._evict_one()
        emit(FRONTEND_DEPTH, self.pending)
        if evicted is not None and evicted.request_id == request.request_id:
            return evicted
        return None

    def _admit_class(self, pend: _Pending, arrival: float) -> str | None:
        """Loosest-necessary class whose deadline the cost model can
        still meet, or ``None`` when even the loosest cannot."""
        order = self._class_order()
        start = order.index(pend.cls) if pend.cls in order else 0
        stale = max(0.0, self.now_ms - arrival)
        for cls in order[start:]:
            deadline = (pend.request.deadline_ms
                        if pend.request.deadline_ms is not None
                        else self._objective_ms(cls))
            predicted = stale + self._backlog_ms(cls) + pend.cost_ms
            if predicted <= deadline * self.config.admission_slack:
                return cls
            if not self.config.allow_downgrade:
                break
            if pend.request.deadline_ms is not None:
                break          # a hard deadline does not loosen
        return None

    def _evict_one(self) -> RequestOutcome | None:
        """Shed the latest-virtual-finish request of the lowest class
        (batch before standard before interactive)."""
        for cls in reversed(self._class_order()):
            q = self._queues.get(cls)
            if q is None or not len(q):
                continue
            victim: _Pending = q.pop_tail()
            self._buckets[victim.request.tenant].refund(victim.cost_ms)
            return self._shed(victim, "overload", "capacity")
        return None

    # -- shed / finish bookkeeping -------------------------------------

    def _shed(self, pend: _Pending, reason: str, stage: str) -> RequestOutcome:
        req = pend.request
        out = RequestOutcome(
            request_id=req.request_id, tenant=req.tenant,
            slo_class=pend.cls, state="shed", arrival_ms=req.arrival_ms,
            finish_ms=max(self.now_ms, req.arrival_ms),
            reason=reason, stage=stage)
        self.slo.record_shed(pend.cls, reason, tenant=req.tenant)
        emit(FRONTEND_REQUESTS, tenant=req.tenant, cls=pend.cls,
             outcome="shed")
        telemetry.event("serve.frontend_shed", request=req.request_id,
                        tenant=req.tenant, cls=pend.cls, reason=reason,
                        stage=stage)
        if self._journal is not None:
            self._journal.shed(req.request_id, tenant=req.tenant,
                               cls=pend.cls, reason=reason,
                               at_ms=out.finish_ms)
        self._record(out)
        return out

    def _finish(self, pend: _Pending, report: JobReport) -> RequestOutcome:
        req = pend.request
        out = RequestOutcome(
            request_id=req.request_id, tenant=req.tenant,
            slo_class=pend.cls, state="completed",
            arrival_ms=req.arrival_ms, finish_ms=self.now_ms,
            latency_ms=self.now_ms - req.arrival_ms, report=report)
        emit(REQUEST_LATENCY, out.latency_ms, cls=pend.cls)
        emit(FRONTEND_REQUESTS, tenant=req.tenant, cls=pend.cls,
             outcome="completed" if report.ok else "failed")
        self._record(out)
        return out

    def _record(self, out: RequestOutcome) -> None:
        self.outcomes[out.request_id] = out
        self._order.append(out.request_id)

    # -- dispatch ------------------------------------------------------

    def _next_pick(self) -> _Pending | None:
        """Strict-priority across classes, WFQ within a class."""
        for cls in self._class_order():
            q = self._queues.get(cls)
            if q is not None and len(q):
                return q.pop()
        return None

    def _fill_handoff(self) -> None:
        """Commit the next picks to the scheduler, up to
        :data:`HANDOFF_DEPTH` ahead of execution."""
        while len(self._handoff) < HANDOFF_DEPTH:
            pend = self._next_pick()
            if pend is None:
                break
            self.scheduler.commit(pend.job,
                                  not_before_ms=pend.request.arrival_ms)
            self._handoff.append(pend)

    def dispatch_once(self) -> RequestOutcome | None:
        """Run the next pending request to completion; ``None`` when
        nothing is pending.  Hand-off requests that share its launch
        (:meth:`BatchScheduler.run_job`) finish with it, stop counting
        as pending, and are returned by the next calls, one per call
        in pick order, without a launch."""
        if self._fused:
            return self._fused.popleft()
        self._fill_handoff()
        if not self._handoff:
            return None
        pend = self._handoff.popleft()
        report = self.scheduler.run_job(
            pend.job, resume=self._resume, stop_after=self._stop_after,
            mates=[p.job for p in self._handoff])
        mates = [self._handoff.popleft() for _ in report.mates]
        emit(FRONTEND_DEPTH, self.pending)
        out = self._finish(pend, report)
        self._fused.extend(self._finish(p, r)
                           for p, r in zip(mates, report.mates))
        return out

    # -- open-loop run -------------------------------------------------

    def run(self, requests: list[ServeRequest], *,
            live_every_ms: float | None = None,
            live_sink=None,
            stop_after_jobs: int | None = None) -> FrontendReport:
        """Serve a prepared request stream on the modeled clock.

        Arrivals are admitted in ``(arrival_ms, tenant, request_id)``
        order, interleaved with dispatch exactly as a live service
        would see them: every request that arrived while the previous
        job ran is offered before the next dispatch decision.

        ``live_every_ms``/``live_sink`` drive the ``--live`` periodic
        reporting; ``stop_after_jobs`` aborts after N completed jobs
        (the kill seam for resume tests).
        """
        events = sorted(requests,
                        key=lambda r: (r.arrival_ms, r.tenant,
                                       r.request_id))
        if telemetry.enabled():
            self.scheduler.derive_trace_ids(r.request_id for r in events)
        i = 0
        served = 0
        next_tick = (self.now_ms + live_every_ms
                     if live_every_ms else None)
        while i < len(events) or self.pending or self._fused:
            # Idle, also take the next arrival batch (it waits for it).
            horizon = self.now_ms if self.pending or self._fused else max(
                self.now_ms, events[i].arrival_ms)
            while i < len(events) and events[i].arrival_ms <= horizon:
                self.offer(events[i])
                i += 1
            if not (self.pending or self._fused):
                continue
            self.dispatch_once()
            served += 1
            if next_tick is not None and live_sink is not None:
                while self.now_ms >= next_tick:
                    live_sink(self.live_snapshot())
                    next_tick += live_every_ms
            if stop_after_jobs is not None and served >= stop_after_jobs:
                break
        if live_sink is not None:
            live_sink(self.live_snapshot())
        return self.report()

    # -- reporting -----------------------------------------------------

    def live_snapshot(self) -> dict:
        """One ``--live`` tick: counters plus per-class percentiles."""
        snap = self.slo.snapshot()
        by_class = {}
        for cls in self._class_order():
            if cls not in snap:
                continue
            lat = snap[cls]["latency_ms"]
            by_class[cls] = {
                "done": snap[cls]["jobs"],
                "shed": snap[cls]["shed"],
                "p50": lat.get("p50"),
                "p99": lat.get("p99"),
            }
        return {
            "now_ms": self.now_ms,
            "pending": self.pending,
            "completed": sum(st["jobs"] for st in snap.values()),
            "shed": sum(st["shed"] for st in snap.values()),
            "downgrades": self.downgrades,
            "quota_denied": dict(sorted(self.quota_denied.items())),
            "breaker_trips": sum(sum(st["breaker_trips"].values())
                                 for st in snap.values()),
            "by_class": by_class,
        }

    def report(self) -> FrontendReport:
        return FrontendReport(
            outcomes=[self.outcomes[rid] for rid in self._order],
            slo_snapshot=self.slo.snapshot(),
            quota_denied=dict(self.quota_denied),
            downgrades=self.downgrades,
            now_ms=self.now_ms)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()


class AsyncServeFrontend:
    """Asyncio service facade over the deterministic core.

    Clients ``await submit(request)`` and get the final
    :class:`RequestOutcome` (completed *or* shed -- shedding is a
    response, not an exception, so tenants can react without
    try/except plumbing).  A single worker task drains the queues,
    yielding to the event loop between jobs so concurrent producers
    interleave and real backlog builds up -- which is exactly what
    the admission pipeline is for.
    """

    def __init__(self, frontend: ServeFrontend):
        self.frontend = frontend
        self._futures: dict[str, asyncio.Future] = {}
        self._wake = asyncio.Event()
        self._closed = False
        self._worker: asyncio.Task | None = None

    async def __aenter__(self) -> "AsyncServeFrontend":
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def start(self) -> None:
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(
                self._drain())

    async def submit(self, request: ServeRequest) -> RequestOutcome:
        """Offer a request and wait for its final disposition."""
        if self._closed:
            raise RuntimeError("front end is closed")
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._futures[request.request_id] = fut
        self.frontend.offer(request)
        # The offer may have decided this request *or* evicted another
        # tenant's queued request -- resolve every decided future.
        self._resolve_all_decided()
        self._wake.set()
        return await fut

    def _resolve_all_decided(self) -> None:
        for rid, fut in self._futures.items():
            out = self.frontend.outcomes.get(rid)
            if out is not None and not fut.done():
                fut.set_result(out)

    async def _drain(self) -> None:
        while True:
            out = self.frontend.dispatch_once()
            self._resolve_all_decided()
            if out is None:
                if self._closed:
                    break
                self._wake.clear()
                await self._wake.wait()
            else:
                # Yield so producers can interleave submissions
                # between jobs (that is what creates real backlog).
                await asyncio.sleep(0)

    async def close(self) -> None:
        self._closed = True
        self._wake.set()
        if self._worker is not None:
            await self._worker
        self._resolve_all_decided()
        self.frontend.close()


__all__ = [
    "HANDOFF_DEPTH", "ServeRequest", "RequestOutcome", "FrontendConfig",
    "FrontendReport", "ServeFrontend", "AsyncServeFrontend",
]
