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
:func:`emit` for the active collector, or
:meth:`MetricsRegistry.record`.  The declared kind picks the operation
(counter ``inc``, gauge ``set``, histogram ``observe``); an undeclared
name raises, so a typo fails loudly instead of starting a new family.

A write goes through a *handle* (:class:`Handle`), resolved once per
registry, family and label set -- catalogue lookup, sorted label key,
series storage -- as Prometheus clients resolve ``.labels()``.  The
registry caches handles under the labels as passed plus their value
types (:func:`_handle_key`), so a repeated write is one dict lookup
and one series update.  A caller that repeats the same writes -- a
planned launch's ``sim.*`` and ``model.*`` footprint, memoized with
the plan (:mod:`repro.gpusim.estimator`) -- keys them once with
:func:`resolve` and replays the tuple through the same handles
(:meth:`MetricsRegistry.replay`), one application per write, so every
series accumulates in the same order either way.

Counters are float-valued on purpose: "modeled milliseconds by
solver/phase" is a counter in the aggregation sense (only ever added
to) even though the increments are fractional.

Histograms are *streaming*: observations land in log-linear (HDR-style)
buckets -- :data:`SUBBUCKETS` linear sub-buckets per power of two --
so a series holds O(buckets) state independent of how many samples it
absorbed, merges bucket-wise, and reports deterministic p50/p95/p99,
within one bucket (a relative error of at most ``1/SUBBUCKETS`` per
edge) of the exact quantiles; the exact list-backed oracle lives with
the property tests.
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
LAUNCHES_TOTAL = "serve.launches_total"
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
    LAUNCHES_TOTAL: ("counter", "completed launches by device and status: "
                     "one per GPU launch (a fused launch once), CPU "
                     "re-solve (device=cpu) and chunk restored from the "
                     "journal (status=restored)"),
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


def _labelkey(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _labelstr(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


@dataclass
class Counter:
    """Monotonically accumulating value per label set."""

    kind = "counter"
    name: str
    help: str = ""
    series: dict[LabelKey, float] = field(default_factory=dict)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        CounterHandle(self, _labelkey(labels))(amount)

    def value(self, **labels: Any) -> float:
        return self.series.get(_labelkey(labels), 0.0)


@dataclass
class Gauge:
    """Last-written value per label set."""

    kind = "gauge"
    name: str
    help: str = ""
    series: dict[LabelKey, float] = field(default_factory=dict)

    def set(self, value: float, **labels: Any) -> None:
        GaugeHandle(self, _labelkey(labels))(value)

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

    kind = "histogram"
    name: str
    help: str = ""
    series: dict[LabelKey, HistogramSeries] = field(default_factory=dict)

    def observe(self, value: float, **labels: Any) -> None:
        HistogramHandle(self, _labelkey(labels))(value)

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
# Bound handles
# ----------------------------------------------------------------------

def _handle_key(name: str, labels: dict[str, Any]) -> tuple:
    """The handle-cache key of a write (:func:`emit` inlines it): name,
    labels as passed, then their value types, which keep ``1``, ``1.0``
    and ``True`` apart (equal hashes, labels "1", "1.0" and "True")."""
    return (name, *labels.items(), *map(type, labels.values()))


#: Label value types whose handles are cached: equal values of one of
#: them label alike.  Others (``0.0 == -0.0``) resolve on every write.
_CACHED_TYPES = frozenset({str, int, bool, type(None)})


class Handle:
    """One series of one registry's family, resolved once: the declared
    kind, the sorted label key and the series storage.  Calling it is
    one write; it writes only into the registry that bound it."""

    __slots__ = ("name", "key", "series")
    kind = ""

    def __init__(self, family: Counter | Gauge | Histogram, key: LabelKey):
        self.name = family.name
        self.key = key
        self.series = family.series

    def apply(self, value: float, bucket: int | None) -> None:
        """Apply a write :func:`resolve` keyed (a memo replay)."""
        self(value)


class CounterHandle(Handle):
    __slots__ = ()
    kind = "counter"

    def __call__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        series, key = self.series, self.key
        series[key] = series.get(key, 0.0) + value


class GaugeHandle(Handle):
    __slots__ = ()
    kind = "gauge"

    def __call__(self, value: float) -> None:
        self.series[self.key] = float(value)


class HistogramHandle(Handle):
    """Holds its :class:`HistogramSeries`, created when bound."""

    __slots__ = ("hist",)
    kind = "histogram"

    def __init__(self, family: Histogram, key: LabelKey):
        super().__init__(family, key)
        self.hist = self.series.setdefault(key, HistogramSeries())

    def __call__(self, value: float) -> None:
        self.hist.observe(value)

    def apply(self, value: float, bucket: int | None) -> None:
        if bucket is not None:              # a NaN observation is dropped
            self.hist.add(value, bucket)


#: Declared kind -> (family class, handle class).
_KINDS = {"counter": (Counter, CounterHandle), "gauge": (Gauge, GaugeHandle),
          "histogram": (Histogram, HistogramHandle)}

#: One keyed metric write: ``(handle key, value, histogram bucket)``.
Write = tuple[tuple, float, "int | None"]


def resolve(name: str, value: float = 1.0, /, **labels: Any) -> Write:
    """Key one write, and bucket a histogram observation, for
    :meth:`MetricsRegistry.replay` on any registry; the write is
    checked when applied, exactly as :func:`emit` checks it."""
    bucket = None
    if METRICS.get(name, ("",))[0] == "histogram":
        value = float(value)
        bucket = bucket_index(value) if value == value else None
    return _handle_key(name, labels), value, bucket


#: The registry :func:`emit` writes to: the active collector's (set by
#: :func:`repro.telemetry.collect`), ``None`` while telemetry is off.
_active: "MetricsRegistry | None" = None


def emit(name: str, value: float = 1.0, /, **labels: Any) -> None:
    """Record ``value`` into the declared family ``name`` on the active
    collector (:meth:`MetricsRegistry.record`); no-op when telemetry is
    off."""
    registry = _active
    if registry is not None:
        key = (name, *labels.items(), *map(type, labels.values()))
        try:
            handle = registry._handles[key]
        except (KeyError, TypeError):       # first write, or uncached
            handle = registry._bind(key, value)
        handle(value)


class MetricsRegistry:
    """Lazily-created, name-keyed metric families, written through
    bound handles (one per family and label set)."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        #: :func:`_handle_key` -> its bound handle.
        self._handles: dict[tuple, Handle] = {}

    def _get(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            declared = METRICS.get(name)
            if declared is not None:
                kind, help = declared
                if _KINDS[kind][0] is not cls:
                    raise TypeError(f"metric {name!r} is declared as a "
                                    f"{kind}, not {cls.__name__}")
            metric = cls(name=name, help=help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def _bind(self, key: tuple, value: float = 0.0) -> Handle:
        """Resolve the handle of a :func:`_handle_key` and cache it when
        its label values allow.  An undeclared name raises
        :class:`KeyError`; a negative first counter ``value`` raises
        before the family is created."""
        name = key[0]
        if name not in METRICS:
            raise KeyError(f"undeclared metric {name!r}: add it to "
                           f"repro.telemetry.metrics.METRICS")
        kind = METRICS[name][0]
        if kind == "counter" and value < 0:
            raise ValueError(f"counter {name!r} cannot decrease")
        family, handle_cls = _KINDS[kind]
        n = (len(key) - 1) // 2
        handle = handle_cls(self._get(family, name, ""),
                            _labelkey(dict(key[1:1 + n])))
        if _CACHED_TYPES.issuperset(key[1 + n:]):
            self._handles[key] = handle
        return handle

    def handle(self, name: str, /, **labels: Any) -> Handle:
        """The bound handle of family ``name``'s ``labels`` series (what
        ``.labels()`` returns in Prometheus clients): resolved on first
        use, then cached in this registry."""
        return self._handle(_handle_key(name, labels))

    def _handle(self, key: tuple, value: float = 0.0) -> Handle:
        try:
            return self._handles[key]
        except (KeyError, TypeError):       # first write, or uncached
            return self._bind(key, value)

    def record(self, name: str, value: float = 1.0, /,
               **labels: Any) -> None:
        """Apply ``value`` to the declared family ``name`` by its
        catalogue kind (counter ``inc``, gauge ``set``, histogram
        ``observe``) through its handle.  Raises :class:`KeyError` for
        a name missing from :data:`METRICS`."""
        self._handle(_handle_key(name, labels), value)(value)

    def replay(self, writes: Iterable[Write]) -> None:
        """Apply keyed writes (:func:`resolve`) in order, each through
        its handle as its own counter add, gauge set or histogram
        observation."""
        for key, value, bucket in writes:
            self._handle(key, value).apply(value, bucket)

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
            out[metric.kind + "s"][name] = {
                _labelstr(k) or "_": (
                    v.summary() if metric.kind == "histogram" else v)
                for k, v in sorted(metric.series.items())}
        return out
