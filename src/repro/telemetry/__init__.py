"""Observability for the solve path: spans, metrics, profile export.

The paper's contribution is a *measurement methodology* -- phase
breakdowns, differential timing, resource attribution.  This package
makes those measurements observable for whole workloads instead of
single launches:

* **spans/events** (:func:`span`, :func:`event`) -- nested wall-clock
  intervals with free-form attributes, including modeled-time
  attributes attached by the timing layer;
* **CUPTI-style callbacks** (:mod:`repro.telemetry.callbacks`) -- the
  simulator announces launch begin/end, phase boundaries and step
  records; subscribers observe every launch without patching kernels;
* **metrics** (:mod:`repro.telemetry.metrics`) -- counters, gauges and
  histograms (launches, modeled ms by solver/phase, bank-conflict
  degree distributions, occupancy) aggregated across a session;
* **export sinks** (:mod:`repro.telemetry.export`) -- JSONL event log,
  Chrome trace-event JSON (one modeled track per kernel phase;
  loadable in Perfetto), and a text summary;
* **profiling** (:mod:`repro.telemetry.profile`, surfaced as the
  ``repro profile`` CLI) -- run a named workload and write all three.

Everything hangs off a process-local collector that is *off by
default*: with no active collector, ``span()`` returns a shared no-op
singleton and the callback registry short-circuits on an empty
subscriber list, so the solve path pays nothing.

Typical use::

    from repro import telemetry
    from repro.telemetry.export import text_summary

    with telemetry.collect() as col:
        x, res = run_kernel("cr_pcr", systems)
    print(text_summary(col))

See ``docs/observability.md`` for the full walkthrough.
"""

from . import callbacks
from .collector import (Collector, LaunchRecord, TickClock, collect,
                        current_attr, current_span, deterministic_collector,
                        enabled, event, get_collector, span, trace_span)
from .export import (chrome_trace, estimator_summary, phase_totals,
                     prometheus_text, resilience_summary, serve_summary,
                     text_summary, to_jsonl, trace_trees, verify_summary,
                     write_chrome_trace, write_jsonl, write_prometheus,
                     write_summary)
from .metrics import (BREAKER_TRANSITIONS, CANARY_TOTAL, CHUNKS_TOTAL,
                      CHUNK_RETRIES,
                      COST_RESIDUAL, DEADLINE_MISSES, DEADLINE_SLACK,
                      DEGRADED_TOTAL, FALLBACK_TOTAL,
                      FUZZ_CASES, HEALTH_SCORE, HEDGES_TOTAL,
                      LIFECYCLE_TRANSITIONS,
                      QUEUE_DEPTH, QUEUE_REJECTED, QUEUE_WAIT,
                      RESIDUAL_MAX, RETRY_DELAY, SERVE_CHUNK_LATENCY,
                      SERVE_LATENCY, SHED_TOTAL,
                      VERIFY_CELLS, Counter,
                      Gauge, Histogram, MetricsRegistry,
                      record_breaker_transition, record_canary,
                      record_chunk_done,
                      record_chunk_latency,
                      record_chunk_retry, record_cost_residual,
                      record_deadline_miss, record_deadline_slack,
                      record_degraded_solve, record_fallback,
                      record_fuzz_case, record_health_score, record_hedge,
                      record_job_latency,
                      record_lifecycle_transition,
                      record_queue_depth,
                      record_queue_rejection, record_queue_wait,
                      record_residual_max, record_retry_delay,
                      record_shed, record_verify_cell)
from .slo import DEFAULT_CLASS, DEFAULT_CLASSES, SLOClass, SLORegistry
from .spans import NOOP_SPAN, EventRecord, LiveSpan, NoopSpan, SpanRecord

__all__ = [
    "callbacks", "Collector", "LaunchRecord", "TickClock", "collect",
    "current_attr", "current_span", "deterministic_collector", "enabled",
    "event", "get_collector", "span", "trace_span",
    "chrome_trace", "estimator_summary", "phase_totals", "prometheus_text",
    "resilience_summary", "serve_summary",
    "text_summary", "trace_trees", "verify_summary",
    "to_jsonl", "write_chrome_trace", "write_jsonl", "write_prometheus",
    "write_summary",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "FALLBACK_TOTAL", "RESIDUAL_MAX", "record_fallback",
    "record_residual_max",
    "BREAKER_TRANSITIONS", "CHUNKS_TOTAL", "CHUNK_RETRIES",
    "COST_RESIDUAL", "DEADLINE_MISSES", "DEADLINE_SLACK", "DEGRADED_TOTAL",
    "QUEUE_DEPTH", "QUEUE_REJECTED", "QUEUE_WAIT", "RETRY_DELAY",
    "SERVE_CHUNK_LATENCY", "SERVE_LATENCY", "SHED_TOTAL",
    "record_breaker_transition", "record_chunk_done",
    "record_chunk_latency", "record_chunk_retry", "record_cost_residual",
    "record_deadline_miss", "record_deadline_slack",
    "record_degraded_solve", "record_job_latency",
    "record_queue_depth",
    "record_queue_rejection", "record_queue_wait", "record_retry_delay",
    "record_shed",
    "HEALTH_SCORE", "LIFECYCLE_TRANSITIONS", "HEDGES_TOTAL", "CANARY_TOTAL",
    "record_health_score", "record_lifecycle_transition", "record_hedge",
    "record_canary",
    "FUZZ_CASES", "VERIFY_CELLS", "record_fuzz_case", "record_verify_cell",
    "DEFAULT_CLASS", "DEFAULT_CLASSES", "SLOClass", "SLORegistry",
    "NOOP_SPAN", "EventRecord", "LiveSpan", "NoopSpan", "SpanRecord",
]
