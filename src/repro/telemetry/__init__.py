"""Observability for the solve path: spans, metrics, profile export.

The paper's contribution is a *measurement methodology* -- phase
breakdowns, differential timing, resource attribution.  This package
makes those measurements observable for whole workloads instead of
single launches:

* **spans/events** (:func:`span`, :func:`event`) -- nested wall-clock
  intervals with free-form attributes, including modeled-time
  attributes attached by the timing layer;
* **launch records** (:meth:`Collector.launch`) -- the executor reports
  every simulated launch to the active collector: one ``sim.launch``
  span, the :class:`LaunchRecord` with its result, and ``sim.*``
  metrics derived once per launch from its counter ledger;
* **metrics** (:mod:`repro.telemetry.metrics`) -- counters, gauges and
  histograms (launches, modeled ms by solver/phase, bank-conflict
  degree distributions, occupancy) aggregated across a session, each
  declared once in the :data:`METRICS` catalogue and written with
  :func:`emit`;
* **export sinks** (:mod:`repro.telemetry.export`) -- JSONL event log,
  Chrome trace-event JSON (one modeled track per kernel phase;
  loadable in Perfetto), and a text summary;
* **profiling** (:mod:`repro.telemetry.profile`, surfaced as the
  ``repro profile`` CLI) -- run a named workload and write all three.

Everything hangs off a process-local collector that is *off by
default*: with no active collector, ``span()`` returns a shared no-op
singleton and the executor keeps no launch record, so the solve path
pays nothing.

Typical use::

    from repro import telemetry
    from repro.telemetry.export import text_summary

    with telemetry.collect() as col:
        x, res = run_kernel("cr_pcr", systems)
    print(text_summary(col))

See ``docs/observability.md`` for the full walkthrough.
"""

from .collector import (Collector, LaunchRecord, TickClock, collect,
                        current_attr, current_span, deterministic_collector,
                        enabled, event, get_collector, span, trace_span)
from .export import (chrome_trace, estimator_summary, phase_totals,
                     prometheus_text, resilience_summary, serve_summary,
                     text_summary, to_jsonl, trace_trees, verify_summary,
                     write_chrome_trace, write_jsonl, write_prometheus,
                     write_summary)
from .metrics import (METRICS, Counter, Gauge, Histogram, MetricsRegistry,
                      emit)
from .slo import DEFAULT_CLASS, DEFAULT_CLASSES, SLOClass, SLORegistry
from .spans import NOOP_SPAN, EventRecord, LiveSpan, NoopSpan, SpanRecord

__all__ = [
    "Collector", "LaunchRecord", "TickClock", "collect",
    "current_attr", "current_span", "deterministic_collector", "enabled",
    "event", "get_collector", "span", "trace_span",
    "chrome_trace", "estimator_summary", "phase_totals", "prometheus_text",
    "resilience_summary", "serve_summary",
    "text_summary", "trace_trees", "verify_summary",
    "to_jsonl", "write_chrome_trace", "write_jsonl", "write_prometheus",
    "write_summary",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "METRICS", "emit",
    "DEFAULT_CLASS", "DEFAULT_CLASSES", "SLOClass", "SLORegistry",
    "NOOP_SPAN", "EventRecord", "LiveSpan", "NoopSpan", "SpanRecord",
]
