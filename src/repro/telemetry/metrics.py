"""Metrics registry: counters, gauges and histograms with labels.

The shapes follow the Prometheus conventions (monotonic counters,
point-in-time gauges, distribution histograms; a metric is a family of
label-keyed series) scaled down to a process-local registry: a
:class:`~repro.telemetry.collector.Collector` owns one registry and the
instrumented layers -- executor callbacks, cost model, PCIe model --
feed it.  ``snapshot()`` renders everything to plain dicts for the
JSONL sink and the text summary.

Counters are float-valued on purpose: "modeled milliseconds by
solver/phase" is a counter in the aggregation sense (only ever added
to) even though the increments are fractional.

Histograms are *streaming*: observations land in log-linear (HDR-style)
buckets -- :data:`SUBBUCKETS` linear sub-buckets per power of two --
so a series holds O(buckets) state independent of how many samples it
absorbed, merges bucket-wise, and reports deterministic p50/p95/p99.
The old exact list-backed implementation survives as
:class:`_ReferenceHistogram` / :func:`_reference_summarize`, the oracle
the property tests compare quantiles against (agreement within one
bucket, i.e. a relative error of at most ``1/SUBBUCKETS`` per edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

LabelKey = tuple[tuple[str, str], ...]

#: Canonical resilience metric names (emitted by
#: :mod:`repro.resilience.pipeline`, rendered as their own section of
#: the text summary).
FALLBACK_TOTAL = "fallback_total"
RESIDUAL_MAX = "residual_max"

#: Canonical serving-layer metric names (emitted by
#: :mod:`repro.serve.scheduler` and friends; rendered by
#: :func:`repro.telemetry.export.serve_summary`).
BREAKER_TRANSITIONS = "serve.breaker_transitions"
CHUNK_RETRIES = "serve.chunk_retries"
DEADLINE_MISSES = "serve.deadline_misses"
DEGRADED_TOTAL = "serve.degraded_total"
CHUNKS_TOTAL = "serve.chunks_total"

#: SLO-facing latency distributions (modeled milliseconds, emitted by
#: :class:`repro.serve.BatchScheduler` through the
#: :class:`repro.telemetry.slo.SLORegistry`; rendered by
#: ``repro serve --report`` and the Prometheus exposition).
SERVE_LATENCY = "serve.latency_ms"
SERVE_CHUNK_LATENCY = "serve.chunk_ms"
QUEUE_WAIT = "serve.queue_wait_ms"
DEADLINE_SLACK = "serve.deadline_slack_ms"
RETRY_DELAY = "serve.retry_delay_ms"
SHED_TOTAL = "serve.shed_total"

#: Device-health lifecycle metrics (emitted by
#: :class:`repro.serve.health.HealthMonitor` and the scheduler's hedged
#: execution path; rendered in the serve summary and the Prometheus
#: exposition).
HEALTH_SCORE = "serve.health_score"
LIFECYCLE_TRANSITIONS = "serve.lifecycle_transitions"
HEDGES_TOTAL = "serve.hedges_total"
CANARY_TOTAL = "serve.canary_total"

#: Multi-tenant front-end metrics (emitted by
#: :class:`repro.serve.frontend.ServeFrontend`; rendered in the serve
#: summary and the Prometheus exposition).  ``serve.requests_total``
#: counts every request by tenant/class/outcome; the quota and
#: downgrade counters attribute admission-control decisions per tenant.
FRONTEND_REQUESTS = "serve.requests_total"
FRONTEND_DEPTH = "serve.frontend_depth"
REQUEST_LATENCY = "serve.request_latency_ms"
QUOTA_DENIED = "serve.quota_denied_total"
QUOTA_TOKENS = "serve.quota_tokens"
DOWNGRADES = "serve.downgrades_total"

#: Modeled-vs-actual scheduler estimator accuracy: signed relative
#: error ``(actual - estimate) / estimate`` per (solver, layout, n).
COST_RESIDUAL = "estimator.cost_residual"

#: Canonical verification metric names (emitted by
#: :mod:`repro.verify`; rendered by
#: :func:`repro.telemetry.export.verify_summary`).
VERIFY_CELLS = "verify.cells"
FUZZ_CASES = "fuzz.cases"


def record_fallback(frm: str, to: str, reason: str, count: int = 1) -> None:
    """Count one solver escalation hop on the active collector.

    ``fallback_total{from,to,reason}`` -- no-op when telemetry is
    disabled (the lazy import keeps this module cycle-free with
    :mod:`repro.telemetry.collector`).
    """
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            FALLBACK_TOTAL, "solver fallback escalations").inc(
                count, **{"from": frm, "to": to, "reason": reason})


def record_residual_max(value: float, method: str) -> None:
    """Observe a per-attempt worst relative residual
    (``residual_max{method}``); no-op when telemetry is disabled."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.histogram(
            RESIDUAL_MAX,
            "max relative residual per solve attempt").observe(
                value, method=method)


def record_breaker_transition(device: str, frm: str, to: str) -> None:
    """Count one circuit-breaker state change
    (``serve.breaker_transitions{device,from,to}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            BREAKER_TRANSITIONS, "circuit breaker state transitions").inc(
                **{"device": device, "from": frm, "to": to})


def record_chunk_retry(device: str, kind: str) -> None:
    """Count one chunk retry after a device failure
    (``serve.chunk_retries{device,kind}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            CHUNK_RETRIES, "chunk retries after device failures").inc(
                device=device, kind=kind)


def record_deadline_miss(job_id: str) -> None:
    """Count one missed job deadline (``serve.deadline_misses{job}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            DEADLINE_MISSES, "jobs that missed their deadline").inc(
                job=job_id)


def record_degraded_solve(reason: str) -> None:
    """Count one chunk degraded to the CPU chain
    (``serve.degraded_total{reason}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            DEGRADED_TOTAL, "chunks degraded to the CPU chain").inc(
                reason=reason)


def record_chunk_done(device: str, status: str) -> None:
    """Count one completed chunk (``serve.chunks_total{device,status}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            CHUNKS_TOTAL, "chunks completed by device and status").inc(
                device=device, status=status)


def record_job_latency(ms: float, cls: str) -> None:
    """Observe one job's modeled end-to-end latency
    (``serve.latency_ms{cls}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.histogram(
            SERVE_LATENCY, "modeled job latency by SLO class").observe(
                ms, cls=cls)


def record_chunk_latency(ms: float, cls: str, device: str) -> None:
    """Observe one accepted chunk's modeled cost
    (``serve.chunk_ms{cls,device}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.histogram(
            SERVE_CHUNK_LATENCY,
            "modeled chunk latency by SLO class and device").observe(
                ms, cls=cls, device=device)


def record_queue_wait(ms: float, cls: str) -> None:
    """Observe one job's modeled admission-to-dispatch wait
    (``serve.queue_wait_ms{cls}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.histogram(
            QUEUE_WAIT, "modeled queue wait by SLO class").observe(
                ms, cls=cls)


def record_deadline_slack(ms: float, cls: str) -> None:
    """Observe one deadline job's remaining budget at completion,
    negative on a miss (``serve.deadline_slack_ms{cls}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.histogram(
            DEADLINE_SLACK,
            "modeled deadline slack by SLO class").observe(ms, cls=cls)


def record_retry_delay(ms: float, cls: str, device: str) -> None:
    """Observe one jittered retry backoff
    (``serve.retry_delay_ms{cls,device}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.histogram(
            RETRY_DELAY,
            "modeled retry backoff by SLO class and device").observe(
                ms, cls=cls, device=device)


def record_shed(cls: str, reason: str, tenant: str = "default") -> None:
    """Count one load-shed (admission-rejected) job
    (``serve.shed_total{cls,reason,tenant}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            SHED_TOTAL, "jobs shed at admission by SLO class").inc(
                cls=cls, reason=reason, tenant=tenant)


def record_request(tenant: str, cls: str, outcome: str) -> None:
    """Count one front-end request by final disposition
    (``serve.requests_total{tenant,cls,outcome}``); ``outcome`` is
    ``completed`` | ``shed`` | ``failed``."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            FRONTEND_REQUESTS, "front-end requests by disposition").inc(
                tenant=tenant, cls=cls, outcome=outcome)


def record_frontend_depth(depth: int) -> None:
    """Gauge the front end's pending-request depth (WFQ backlog plus
    the bounded scheduler hand-off; ``serve.frontend_depth``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.gauge(
            FRONTEND_DEPTH,
            "requests pending in the serve front end").set(depth)


def record_request_latency(ms: float, cls: str) -> None:
    """Observe one request's arrival-to-completion modeled latency
    (``serve.request_latency_ms{cls}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.histogram(
            REQUEST_LATENCY,
            "arrival-to-completion latency by SLO class").observe(
                ms, cls=cls)


def record_quota_denied(tenant: str) -> None:
    """Count one token-bucket quota denial
    (``serve.quota_denied_total{tenant}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            QUOTA_DENIED, "requests denied by tenant quota").inc(
                tenant=tenant)


def record_quota_tokens(tenant: str, tokens: float) -> None:
    """Gauge one tenant's remaining quota tokens in modeled
    milliseconds of work (``serve.quota_tokens{tenant}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.gauge(
            QUOTA_TOKENS, "remaining tenant quota tokens").set(
                tokens, tenant=tenant)


def record_downgrade(tenant: str, frm: str, to: str) -> None:
    """Count one admission-control class downgrade
    (``serve.downgrades_total{tenant,from,to}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            DOWNGRADES, "requests downgraded at admission").inc(
                **{"tenant": tenant, "from": frm, "to": to})


def record_health_score(device: str, score: float) -> None:
    """Gauge one device's current health score in [0, 1]
    (``serve.health_score{device}``); 1 is perfectly healthy."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.gauge(
            HEALTH_SCORE, "device health score (1 = healthy)").set(
                score, device=device)


def record_lifecycle_transition(device: str, frm: str, to: str) -> None:
    """Count one device-lifecycle state change
    (``serve.lifecycle_transitions{device,from,to}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            LIFECYCLE_TRANSITIONS,
            "device health lifecycle transitions").inc(
                **{"device": device, "from": frm, "to": to})


def record_hedge(device: str, outcome: str) -> None:
    """Count one hedged chunk attempt by its fate
    (``serve.hedges_total{device,outcome}``; outcomes: ``launched`` |
    ``won`` | ``cancelled`` | ``failed``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            HEDGES_TOTAL, "hedged chunk attempts by outcome").inc(
                device=device, outcome=outcome)


def record_canary(device: str, result: str) -> None:
    """Count one readmission canary solve
    (``serve.canary_total{device,result}``; results: ``ok`` |
    ``residual`` | ``latency`` | ``fault``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            CANARY_TOTAL, "readmission canary solves by result").inc(
                device=device, result=result)


def record_cost_residual(solver: str, layout: str, n: int,
                         residual: float) -> None:
    """Observe one modeled-vs-actual cost residual
    (``estimator.cost_residual{solver,layout,n}``).

    ``residual`` is the signed relative error
    ``(actual_ms - estimate_ms) / estimate_ms`` -- the calibration
    signal the autotuner roadmap items need.
    """
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.histogram(
            COST_RESIDUAL,
            "scheduler cost-estimate relative error").observe(
                residual, solver=solver, layout=layout, n=n)


def record_verify_cell(status: str, solver: str, matrix_class: str,
                       engine: str) -> None:
    """Count one differential-verification cell outcome
    (``verify.cells{status,solver,matrix_class,engine}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            VERIFY_CELLS, "differential verification cells by outcome").inc(
                status=status, solver=solver, matrix_class=matrix_class,
                engine=engine)


def record_fuzz_case(status: str) -> None:
    """Count one fuzz iteration outcome (``fuzz.cases{status}``)."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.counter(
            FUZZ_CASES, "fuzz iterations by outcome").inc(status=status)


def _labelkey(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _labelstr(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


@dataclass
class Counter:
    """Monotonically accumulating value per label set."""

    name: str
    help: str = ""
    series: dict[LabelKey, float] = field(default_factory=dict)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = _labelkey(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self.series.get(_labelkey(labels), 0.0)


@dataclass
class Gauge:
    """Last-written value per label set."""

    name: str
    help: str = ""
    series: dict[LabelKey, float] = field(default_factory=dict)

    def set(self, value: float, **labels: Any) -> None:
        self.series[_labelkey(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return self.series.get(_labelkey(labels), 0.0)


# ----------------------------------------------------------------------
# Streaming (log-linear, HDR-style) histogram
# ----------------------------------------------------------------------

#: Linear sub-buckets per power of two.  The relative width of one
#: bucket -- and therefore the worst-case quantile error -- is
#: ``1/SUBBUCKETS``.
SUBBUCKETS = 32

#: Binary-exponent clamp: magnitudes outside ``[2**MIN_EXP, 2**MAX_EXP)``
#: collapse into the first/last bucket of their sign (exact min/max are
#: tracked separately, so ``summary()`` stays honest at the extremes).
MIN_EXP = -64
MAX_EXP = 64

_TOP_BUCKET = (MAX_EXP - MIN_EXP + 1) * SUBBUCKETS


def bucket_index(value: float) -> int:
    """Signed bucket index of ``value``.

    0 holds exact zeros; positive values map to ``1..N`` (ascending),
    negatives mirror to ``-1..-N`` -- so sorting indices as plain ints
    sorts bucket representatives by value.  NaN has no bucket (callers
    drop it before getting here).
    """
    if value == 0.0:
        return 0
    sign = 1 if value > 0 else -1
    mag = abs(value)
    if math.isinf(mag):
        return sign * _TOP_BUCKET
    m, e = math.frexp(mag)          # mag = m * 2**e, m in [0.5, 1)
    e -= 1                          # mag = (2m) * 2**e, 2m in [1, 2)
    if e < MIN_EXP:
        return sign                 # subnormal-ish: first bucket
    if e > MAX_EXP:
        return sign * _TOP_BUCKET
    frac = min(SUBBUCKETS - 1, int((2.0 * m - 1.0) * SUBBUCKETS))
    return sign * ((e - MIN_EXP) * SUBBUCKETS + frac + 1)


def bucket_lower(index: int) -> float:
    """Lower edge (by magnitude) of a bucket -- the representative
    value quantiles report, clamped by callers into the observed
    ``[min, max]`` so exact powers of two and single-bucket series
    round-trip exactly."""
    if index == 0:
        return 0.0
    sign = 1.0 if index > 0 else -1.0
    b = abs(index) - 1
    e = b // SUBBUCKETS + MIN_EXP
    frac = b % SUBBUCKETS
    return sign * math.ldexp(1.0 + frac / SUBBUCKETS, e)


def bucket_upper(index: int) -> float:
    """Upper edge (by magnitude) of a bucket (the Prometheus ``le``
    boundary for positive buckets)."""
    if index == 0:
        return 0.0
    return bucket_lower(index + (1 if index > 0 else -1))


@dataclass
class HistogramSeries:
    """One label-set's streaming state: sparse bucket counts plus
    exact count/sum/min/max."""

    counts: dict[int, int] = field(default_factory=dict)
    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value:              # NaN carries no rank information
            return
        idx = bucket_index(value)
        self.counts[idx] = self.counts.get(idx, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "HistogramSeries") -> None:
        for idx, c in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + c
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def _clamp(self, value: float) -> float:
        return min(self.max, max(self.min, value))

    def quantile(self, q: float) -> float:
        """Deterministic quantile with the same rank semantics as the
        exact oracle: rank ``min(count-1, floor(q*count))`` of the
        sorted samples, answered by the containing bucket's lower
        edge."""
        if self.count == 0:
            return math.nan
        rank = min(self.count - 1, int(q * self.count))
        seen = 0
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen > rank:
                return self._clamp(bucket_lower(idx))
        return self.max                 # pragma: no cover - rank < count

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_edge, cumulative_count) pairs in ascending order --
        the Prometheus ``_bucket{le=...}`` series."""
        out: list[tuple[float, int]] = []
        seen = 0
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            out.append((bucket_upper(idx), seen))
        return out

    def summary(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.sum / self.count,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


@dataclass
class Histogram:
    """Streaming observed-value distribution per label set.

    Memory is O(occupied buckets) per series -- bounded by the bucket
    grid, independent of sample count -- and two histograms merge
    bucket-wise, so per-shard instances can be combined without
    replaying observations.  Quantiles are deterministic and agree
    with the exact oracle to within one log-linear bucket
    (relative error <= ``1/SUBBUCKETS``).
    """

    name: str
    help: str = ""
    series: dict[LabelKey, HistogramSeries] = field(default_factory=dict)

    def _series(self, labels: dict[str, Any]) -> HistogramSeries:
        key = _labelkey(labels)
        s = self.series.get(key)
        if s is None:
            s = self.series[key] = HistogramSeries()
        return s

    def observe(self, value: float, **labels: Any) -> None:
        self._series(labels).observe(value)

    def count(self, **labels: Any) -> int:
        s = self.series.get(_labelkey(labels))
        return s.count if s is not None else 0

    def quantile(self, q: float, **labels: Any) -> float:
        s = self.series.get(_labelkey(labels))
        return s.quantile(q) if s is not None else math.nan

    def summary(self, **labels: Any) -> dict[str, float]:
        s = self.series.get(_labelkey(labels))
        return s.summary() if s is not None else {"count": 0}

    def cumulative(self, **labels: Any) -> list[tuple[float, int]]:
        s = self.series.get(_labelkey(labels))
        return s.cumulative() if s is not None else []

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s series into this histogram bucket-wise."""
        for key, theirs in other.series.items():
            mine = self.series.get(key)
            if mine is None:
                mine = self.series[key] = HistogramSeries()
            mine.merge(theirs)


# ----------------------------------------------------------------------
# The exact list-backed oracle (previous implementation, retained for
# property tests: streaming quantiles must agree within one bucket).
# ----------------------------------------------------------------------

def _reference_summarize(values: list[float]) -> dict[str, float]:
    """Exact summary over raw samples -- the pre-streaming behaviour."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)

    def quantile(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return {
        "count": len(ordered),
        "sum": sum(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
        "p50": quantile(0.50),
        "p95": quantile(0.95),
        "p99": quantile(0.99),
    }


@dataclass
class _ReferenceHistogram:
    """Exact list-backed histogram: keeps every sample.  Only used as
    the oracle in histogram property tests; production code uses the
    streaming :class:`Histogram`."""

    name: str
    help: str = ""
    series: dict[LabelKey, list[float]] = field(default_factory=dict)

    def observe(self, value: float, **labels: Any) -> None:
        self.series.setdefault(_labelkey(labels), []).append(float(value))

    def values(self, **labels: Any) -> list[float]:
        return list(self.series.get(_labelkey(labels), []))

    def quantile(self, q: float, **labels: Any) -> float:
        values = self.values(**labels)
        if not values:
            return math.nan
        ordered = sorted(values)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def summary(self, **labels: Any) -> dict[str, float]:
        return _reference_summarize(self.values(**labels))


class MetricsRegistry:
    """Lazily-created, name-keyed metric families."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name=name, help=help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def families(self) -> Iterable[Counter | Gauge | Histogram]:
        """All metric families in name order (for the exposition)."""
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def snapshot(self) -> dict[str, Any]:
        """All metric families as plain dicts (JSON-ready)."""
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                out["counters"][name] = {
                    _labelstr(k) or "_": v
                    for k, v in sorted(metric.series.items())}
            elif isinstance(metric, Gauge):
                out["gauges"][name] = {
                    _labelstr(k) or "_": v
                    for k, v in sorted(metric.series.items())}
            else:
                out["histograms"][name] = {
                    _labelstr(k) or "_": s.summary()
                    for k, s in sorted(metric.series.items())}
        return out
