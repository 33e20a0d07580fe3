"""Metrics registry: counters, gauges and histograms with labels.

The shapes follow the Prometheus conventions (monotonic counters,
point-in-time gauges, distribution histograms; a metric is a family of
label-keyed series) scaled down to a process-local registry: a
:class:`~repro.telemetry.collector.Collector` owns one registry and the
instrumented layers -- executor launches, cost model, PCIe model,
serve, resilience, verification -- feed it.  ``snapshot()`` renders
everything to plain dicts for the JSONL sink and the text summary.

Every family the package emits is declared once, in :data:`METRICS`
(name -> kind and help text), and written through one path:
:meth:`MetricsRegistry.record`, or :func:`emit` for the active
collector.  The declared kind picks the operation (counter ``inc``,
gauge ``set``, histogram ``observe``); an undeclared name raises, so a
typo fails loudly instead of starting a new family.

A write is resolved (:func:`resolve`: catalogue lookup, sorted label
key, histogram bucket) before :meth:`MetricsRegistry.write` applies
it.  ``record`` does both at once; a caller that repeats the same
writes -- a planned launch's ``sim.*`` and ``model.*`` footprint,
memoized with the plan (:mod:`repro.gpusim.estimator`) -- resolves
them once and replays the tuple, one application per write, so every
series accumulates in the same order either way.

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

#: Resilience metric names (:mod:`repro.resilience.pipeline`; rendered
#: by :func:`repro.telemetry.export.resilience_summary`).
FALLBACK_TOTAL = "fallback_total"
RESIDUAL_MAX = "residual_max"

#: Serving-layer metric names (:mod:`repro.serve`; rendered by
#: :func:`repro.telemetry.export.serve_summary`).
BREAKER_TRANSITIONS = "serve.breaker_transitions"
CHUNK_RETRIES = "serve.chunk_retries"
DEADLINE_MISSES = "serve.deadline_misses"
DEGRADED_TOTAL = "serve.degraded_total"
CHUNKS_TOTAL = "serve.chunks_total"
SERVE_LATENCY = "serve.latency_ms"
SERVE_CHUNK_LATENCY = "serve.chunk_ms"
QUEUE_WAIT = "serve.queue_wait_ms"
DEADLINE_SLACK = "serve.deadline_slack_ms"
RETRY_DELAY = "serve.retry_delay_ms"
SHED_TOTAL = "serve.shed_total"
HEALTH_SCORE = "serve.health_score"
LIFECYCLE_TRANSITIONS = "serve.lifecycle_transitions"
HEDGES_TOTAL = "serve.hedges_total"
CANARY_TOTAL = "serve.canary_total"
FRONTEND_REQUESTS = "serve.requests_total"
FRONTEND_DEPTH = "serve.frontend_depth"
REQUEST_LATENCY = "serve.request_latency_ms"
QUOTA_DENIED = "serve.quota_denied_total"
QUOTA_TOKENS = "serve.quota_tokens"
DOWNGRADES = "serve.downgrades_total"

#: Modeled-vs-actual scheduler estimator accuracy: signed relative
#: error ``(actual - estimate) / estimate`` per (solver, layout, n).
COST_RESIDUAL = "estimator.cost_residual"

#: Verification metric names (:mod:`repro.verify`; rendered by
#: :func:`repro.telemetry.export.verify_summary`).
VERIFY_CELLS = "verify.cells"
FUZZ_CASES = "fuzz.cases"

#: The metric catalogue: every family the package emits, as
#: ``name -> (kind, help)``.  The help text is the exported ``# HELP``
#: line whoever registers the family first.  To add a metric, add one
#: row here and call :func:`emit` (labels are the call's keywords).
METRICS: dict[str, tuple[str, str]] = {
    # simulated launches (Collector.launch) and fault plans
    "sim.launches": ("counter", "simulated kernel launches"),
    "sim.blocks_per_sm": ("gauge", "occupancy: resident blocks per SM"),
    "sim.shared_words": ("counter", "per-block ledger totals"),
    "sim.global_words": ("counter", "per-block ledger totals"),
    "sim.flops": ("counter", "per-block ledger totals"),
    "sim.syncs": ("counter", "per-block ledger totals"),
    "sim.steps": ("counter", "algorithmic steps"),
    "sim.conflict_degree": ("histogram", "bank-conflict degree per step"),
    "sim.launch_retries": ("counter", "transient launch failures retried"),
    "faults.injected": ("counter", "injected simulated faults"),
    # cost model, PCIe model, solve()
    "model.reports": ("counter", "cost-model evaluations"),
    "model.total_ms": ("counter", "modeled grid time"),
    "model.phase_ms": ("counter", "modeled time by phase"),
    "pcie.transfers": ("counter", "modeled cudaMemcpy calls"),
    "pcie.bytes": ("counter", "bytes over the modeled link"),
    "pcie.transfer_ms": ("histogram", "per-call modeled time"),
    "solve.calls": ("counter", "solve() invocations"),
    "solve.systems": ("counter", "systems solved"),
    # resilience: {from,to,reason}, {method}
    FALLBACK_TOTAL: ("counter", "solver fallback escalations"),
    RESIDUAL_MAX: ("histogram", "max relative residual per solve attempt"),
    # scheduler
    BREAKER_TRANSITIONS: ("counter", "circuit breaker state transitions"),
    CHUNK_RETRIES: ("counter", "chunk retries after device failures"),
    DEADLINE_MISSES: ("counter", "jobs that missed their deadline"),
    DEGRADED_TOTAL: ("counter", "chunks degraded to the CPU chain"),
    CHUNKS_TOTAL: ("counter", "chunks completed by device and status"),
    SERVE_LATENCY: ("histogram", "modeled job latency by SLO class"),
    SERVE_CHUNK_LATENCY: ("histogram",
                          "modeled chunk latency by SLO class and device"),
    QUEUE_WAIT: ("histogram", "modeled queue wait by SLO class"),
    DEADLINE_SLACK: ("histogram", "modeled deadline slack by SLO class"),
    RETRY_DELAY: ("histogram",
                  "modeled retry backoff by SLO class and device"),
    SHED_TOTAL: ("counter", "jobs shed at admission by SLO class"),
    COST_RESIDUAL: ("histogram", "scheduler cost-estimate relative error"),
    # device health lifecycle and hedging
    HEALTH_SCORE: ("gauge", "device health score (1 = healthy)"),
    LIFECYCLE_TRANSITIONS: ("counter", "device health lifecycle transitions"),
    HEDGES_TOTAL: ("counter", "hedged chunk attempts by outcome"),
    CANARY_TOTAL: ("counter", "readmission canary solves by result"),
    # multi-tenant front end
    FRONTEND_REQUESTS: ("counter", "front-end requests by disposition"),
    FRONTEND_DEPTH: ("gauge", "requests pending in the serve front end"),
    REQUEST_LATENCY: ("histogram",
                      "arrival-to-completion latency by SLO class"),
    QUOTA_DENIED: ("counter", "requests denied by tenant quota"),
    QUOTA_TOKENS: ("gauge", "remaining tenant quota tokens"),
    DOWNGRADES: ("counter", "requests downgraded at admission"),
    # verification
    VERIFY_CELLS: ("counter", "differential verification cells by outcome"),
    FUZZ_CASES: ("counter", "fuzz iterations by outcome"),
}


def emit(name: str, value: float = 1.0, /, **labels: Any) -> None:
    """Record ``value`` into the declared family ``name`` on the active
    collector (:meth:`MetricsRegistry.record`); no-op when telemetry is
    off.  The lazy import keeps this module cycle-free with
    :mod:`repro.telemetry.collector`."""
    from .collector import get_collector
    col = get_collector()
    if col is not None:
        col.metrics.record(name, value, **labels)


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
        self.add(value, bucket_index(value))

    def add(self, value: float, idx: int) -> None:
        """Count ``value`` (a non-NaN float) into its bucket ``idx``."""
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


#: Declared kind -> family class.
_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: One resolved metric write: ``(name, kind, label key, value,
#: bucket)``; ``bucket`` is the histogram bucket index, ``None`` for
#: counters, gauges and (dropped) NaN observations.
Write = tuple[str, str, LabelKey, float, "int | None"]


def resolve(name: str, value: float = 1.0, /, **labels: Any) -> Write:
    """Resolve one write to the declared family ``name``: its kind,
    sorted label key, value as its operation stores it and histogram
    bucket.  Raises :class:`KeyError` for an undeclared name and
    :class:`ValueError` for a negative counter increment."""
    declared = METRICS.get(name)
    if declared is None:
        raise KeyError(f"undeclared metric {name!r}: add it to "
                       f"repro.telemetry.metrics.METRICS")
    kind = declared[0]
    key = _labelkey(labels)
    if kind == "counter":
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease")
        return name, kind, key, value, None
    value = float(value)
    bucket = (bucket_index(value) if kind == "histogram" and value == value
              else None)
    return name, kind, key, value, bucket


class MetricsRegistry:
    """Lazily-created, name-keyed metric families."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            declared = METRICS.get(name)
            if declared is not None:
                kind, help = declared
                if _KINDS[kind] is not cls:
                    raise TypeError(f"metric {name!r} is declared as a "
                                    f"{kind}, not {cls.__name__}")
            metric = cls(name=name, help=help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def record(self, name: str, value: float = 1.0, /,
               **labels: Any) -> None:
        """Apply ``value`` to the declared family ``name`` by its
        catalogue kind (counter ``inc``, gauge ``set``, histogram
        ``observe``): :func:`resolve` then :meth:`write`.  Raises
        :class:`KeyError` for a name missing from :data:`METRICS`."""
        self.write((resolve(name, value, **labels),))

    def write(self, writes: Iterable[Write]) -> None:
        """The one write path: apply resolved writes in order, each as
        its own counter add, gauge set or histogram observation."""
        metrics = self._metrics
        for name, kind, key, value, bucket in writes:
            family = metrics.get(name)
            if family is None:
                family = self._get(_KINDS[kind], name, "")
            series = family.series
            if kind == "counter":
                series[key] = series.get(key, 0.0) + value
            elif kind == "gauge":
                series[key] = value
            else:
                hist = series.get(key)
                if hist is None:
                    hist = series[key] = HistogramSeries()
                if bucket is not None:      # NaN observations are dropped
                    hist.add(value, bucket)

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The family registered as ``name``, or ``None``; its type is
        the catalogue kind for every declared name."""
        return self._metrics.get(name)

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
