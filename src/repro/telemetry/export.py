"""Export sinks: JSONL event log, Chrome trace JSON, text summary.

Three views of one :class:`~repro.telemetry.collector.Collector`:

* :func:`to_jsonl` -- everything (spans, events, launches, metrics) as
  one JSON object per line, the diff-friendly archival format;
* :func:`chrome_trace` -- a Chrome trace-event document (loadable in
  Perfetto / ``chrome://tracing``) in which the *modeled* GT200
  timeline is laid out with one track per kernel phase, plus a host
  wall-clock track from the span records;
* :func:`text_summary` -- the human-readable session roll-up, whose
  per-phase modeled times come from the same
  :meth:`~repro.gpusim.costmodel.CostModel.report` call as
  :mod:`repro.analysis.breakdown`, so the two always agree.

The simulator is imported lazily so ``repro.telemetry`` never
participates in ``repro.gpusim``'s import cycle.
"""

from __future__ import annotations

import json
from typing import Any

from .collector import Collector


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of attribute values to JSON types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    item = getattr(value, "item", None)      # numpy scalars
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    return str(value)


def _reports(collector: Collector, cost_model=None):
    """(LaunchRecord, TimingReport) pairs for completed launches."""
    from repro.gpusim import gt200_cost_model

    cm = cost_model or gt200_cost_model()
    return [(rec, cm.report(rec.result)) for rec in collector.launches
            if rec.result is not None]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def to_jsonl(collector: Collector) -> str:
    """One JSON object per line: meta, spans, events, launches, metrics."""
    from repro.gpusim.serialize import launch_to_dict

    lines = [json.dumps({"type": "meta", "format": "repro.telemetry/v1",
                         "spans": len(collector.spans),
                         "events": len(collector.events),
                         "launches": len(collector.launches)})]
    for s in collector.spans:
        lines.append(json.dumps({
            "type": "span", "id": s.span_id, "parent": s.parent_id,
            "trace": s.trace_id, "name": s.name,
            "wall_start_s": s.wall_start_s,
            "wall_dur_s": s.wall_dur_s, "attrs": _jsonable(s.attrs)}))
    for e in collector.events:
        lines.append(json.dumps({
            "type": "event", "id": e.event_id, "name": e.name,
            "span": e.span_id, "wall_s": e.wall_s,
            "attrs": _jsonable(e.attrs)}))
    for rec in collector.launches:
        entry = {"type": "launch", "seq": rec.seq, "kernel": rec.kernel,
                 "num_blocks": rec.num_blocks,
                 "threads_per_block": rec.threads_per_block,
                 "device": rec.device, "span": rec.span_id}
        if rec.result is not None:
            entry["trace"] = launch_to_dict(rec.result)
        lines.append(json.dumps(entry))
    lines.append(json.dumps({"type": "metrics",
                             "snapshot": collector.metrics.snapshot()}))
    return "\n".join(lines) + "\n"


def write_jsonl(collector: Collector, path: str) -> str:
    with open(path, "w") as fh:
        fh.write(to_jsonl(collector))
    return path


# ----------------------------------------------------------------------
# Chrome trace (Perfetto)
# ----------------------------------------------------------------------

#: Gap inserted between launches on the modeled timeline, in us, so
#: adjacent launches stay visually distinct in Perfetto.
_LAUNCH_GAP_US = 2.0

_MODELED_PID = 0
_WALL_PID = 1


def chrome_trace(collector: Collector, cost_model=None) -> dict:
    """Chrome trace-event document with modeled timestamps.

    Track layout: pid 0 is the modeled GPU timeline -- tid 0 carries
    one slice per launch, and each kernel phase gets its own tid so
    Perfetto shows one track per phase (per-step sub-slices nest inside
    the phase slice).  pid 1 replays the host wall-clock spans.
    """
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": _MODELED_PID,
         "args": {"name": "modeled GPU timeline (GT200 cost model)"}},
        {"ph": "M", "name": "thread_name", "pid": _MODELED_PID, "tid": 0,
         "args": {"name": "launches"}},
        {"ph": "M", "name": "process_name", "pid": _WALL_PID,
         "args": {"name": "host wall clock"}},
        {"ph": "M", "name": "thread_name", "pid": _WALL_PID, "tid": 0,
         "args": {"name": "spans"}},
    ]
    phase_tids: dict[str, int] = {}

    def tid_for(phase: str) -> int:
        if phase not in phase_tids:
            tid = len(phase_tids) + 1
            phase_tids[phase] = tid
            events.append({"ph": "M", "name": "thread_name",
                           "pid": _MODELED_PID, "tid": tid,
                           "args": {"name": f"phase:{phase}"}})
        return phase_tids[phase]

    cursor = 0.0
    for rec, rep in _reports(collector, cost_model):
        launch_start = cursor
        cursor += rep.launch_overhead_ms * 1e3
        for name, pt in rep.phases.items():
            dur = pt.total_ms * 1e3
            tid = tid_for(name)
            events.append({
                "ph": "X", "name": name, "cat": "phase",
                "pid": _MODELED_PID, "tid": tid,
                "ts": cursor, "dur": dur,
                "args": {"launch": rec.kernel, "seq": rec.seq,
                         "global_ms": pt.global_ms,
                         "shared_ms": pt.shared_ms,
                         "compute_ms": pt.compute_ms}})
            step_ts = cursor
            for i, step_ms in enumerate(rep.steps_ms(name)):
                step_dur = step_ms * 1e3
                events.append({
                    "ph": "X", "name": f"{name}[{i}]", "cat": "step",
                    "pid": _MODELED_PID, "tid": tid,
                    "ts": step_ts, "dur": step_dur,
                    "args": {"step": i}})
                step_ts += step_dur
            cursor += dur
        events.append({
            "ph": "X", "name": rec.kernel, "cat": "launch",
            "pid": _MODELED_PID, "tid": 0,
            "ts": launch_start, "dur": cursor - launch_start,
            "args": {"seq": rec.seq, "num_blocks": rec.num_blocks,
                     "threads_per_block": rec.threads_per_block,
                     "device": rec.device,
                     "modeled_total_ms": rep.total_ms,
                     "blocks_per_sm": rep.blocks_per_sm,
                     "waves": rep.waves}})
        cursor += _LAUNCH_GAP_US
    # Wall-clock spans: tid 0 carries untraced spans; each trace_id
    # gets its own host thread so one job's tree (scheduler -> device
    # -> launch) reads as a single contiguous track.
    trace_tids: dict[str, int] = {}

    def wall_tid(trace_id: str | None) -> int:
        if trace_id is None:
            return 0
        if trace_id not in trace_tids:
            tid = len(trace_tids) + 1
            trace_tids[trace_id] = tid
            events.append({"ph": "M", "name": "thread_name",
                           "pid": _WALL_PID, "tid": tid,
                           "args": {"name": f"trace:{trace_id[:8]}"}})
        return trace_tids[trace_id]

    span_trace: dict[int, str | None] = {}
    for s in collector.spans:
        span_trace[s.span_id] = s.trace_id
        if s.wall_dur_s is None:
            continue
        args = _jsonable(s.attrs)
        if s.trace_id is not None:
            args = dict(args)
            args["trace_id"] = s.trace_id
        events.append({
            "ph": "X", "name": s.name, "cat": "span",
            "pid": _WALL_PID, "tid": wall_tid(s.trace_id),
            "ts": s.wall_start_s * 1e6, "dur": s.wall_dur_s * 1e6,
            "args": args})
    for e in collector.events:
        tid = wall_tid(span_trace.get(e.span_id)) if e.span_id else 0
        events.append({
            "ph": "i", "s": "t", "name": e.name, "cat": "event",
            "pid": _WALL_PID, "tid": tid, "ts": e.wall_s * 1e6,
            "args": _jsonable(e.attrs)})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"format": "repro.telemetry/v1",
                          "timeline": "modeled (GT200 cost model)"}}


def write_chrome_trace(collector: Collector, path: str,
                       cost_model=None) -> str:
    with open(path, "w") as fh:
        json.dump(chrome_trace(collector, cost_model), fh, indent=1)
    return path


# ----------------------------------------------------------------------
# Text summary
# ----------------------------------------------------------------------

def phase_totals(collector: Collector, cost_model=None
                 ) -> dict[str, dict[str, float]]:
    """Per-phase modeled milliseconds summed over all launches.

    Exactly the per-phase numbers of
    :meth:`~repro.gpusim.costmodel.CostModel.report`, and therefore in
    agreement with :func:`repro.analysis.breakdown.resource_breakdown`.
    """
    totals: dict[str, dict[str, float]] = {}
    for _rec, rep in _reports(collector, cost_model):
        for name, pt in rep.phases.items():
            agg = totals.setdefault(name, {"total_ms": 0.0, "global_ms": 0.0,
                                           "shared_ms": 0.0,
                                           "compute_ms": 0.0})
            agg["total_ms"] += pt.total_ms
            agg["global_ms"] += pt.global_ms
            agg["shared_ms"] += pt.shared_ms
            agg["compute_ms"] += pt.compute_ms
    return totals


def resilience_summary(collector: Collector) -> list[str]:
    """Readable lines for the resilience metrics, empty when none.

    Renders ``fallback_total{from,to,reason}`` as escalation routes,
    ``residual_max`` per method, and the injected-fault counters --
    the degradation view of a chaos or production run.
    """
    from .metrics import FALLBACK_TOTAL, RESIDUAL_MAX, Counter, Histogram

    out: list[str] = []
    fb = collector.metrics._metrics.get(FALLBACK_TOTAL)
    if isinstance(fb, Counter) and fb.series:
        out.append("fallbacks (from -> to, by reason):")
        for key, value in sorted(fb.series.items()):
            labels = dict(key)
            out.append(f"  {labels.get('from', '?')} -> "
                       f"{labels.get('to', '?')} "
                       f"[{labels.get('reason', '?')}]: {value:g}")
    rm = collector.metrics._metrics.get(RESIDUAL_MAX)
    if isinstance(rm, Histogram) and rm.series:
        out.append("residual_max per attempt:")
        for key, series in sorted(rm.series.items()):
            summ = series.summary()
            labels = dict(key)
            out.append(f"  {labels.get('method', '?')}: "
                       f"count {summ['count']}, p50 {summ['p50']:.3e}, "
                       f"max {summ['max']:.3e}")
    faults = collector.metrics._metrics.get("faults.injected")
    if isinstance(faults, Counter) and faults.series:
        total = sum(faults.series.values())
        kinds = ", ".join(f"{dict(k).get('kind', '?')}={v:g}"
                          for k, v in sorted(faults.series.items()))
        out.append(f"injected faults: {total:g} ({kinds})")
    if out:
        out.insert(0, "resilience:")
    return out


def serve_summary(collector: Collector) -> list[str]:
    """Readable lines for the serving-layer metrics, empty when none.

    Renders breaker transitions, lifecycle transitions, hedges,
    canaries, chunk retries, degraded solves, deadline misses,
    admission rejections/sheds and per-class latency quantiles -- the
    health view of a :class:`repro.serve.BatchScheduler` run.
    """
    from .metrics import (BREAKER_TRANSITIONS, CANARY_TOTAL, CHUNKS_TOTAL,
                          CHUNK_RETRIES,
                          DEADLINE_MISSES, DEGRADED_TOTAL, DOWNGRADES,
                          FRONTEND_REQUESTS, HEDGES_TOTAL,
                          LIFECYCLE_TRANSITIONS, QUEUE_REJECTED,
                          QUOTA_DENIED, REQUEST_LATENCY,
                          SERVE_LATENCY, SHED_TOTAL, Counter, Histogram)

    out: list[str] = []
    reqs = collector.metrics._metrics.get(FRONTEND_REQUESTS)
    if isinstance(reqs, Counter) and reqs.series:
        total = sum(reqs.series.values())
        parts = ", ".join(
            f"{dict(k).get('tenant', '?')}/{dict(k).get('cls', '?')}/"
            f"{dict(k).get('outcome', '?')}={v:g}"
            for k, v in sorted(reqs.series.items()))
        out.append(f"front-end requests (tenant/cls/outcome): "
                   f"{total:g} ({parts})")
    def _by_label(metric: "Counter", label: str) -> dict[str, float]:
        # Counters may carry more labels than the one displayed;
        # aggregate so each display key appears once.
        agg: dict[str, float] = {}
        for k, v in metric.series.items():
            key = dict(k).get(label, "?")
            agg[key] = agg.get(key, 0.0) + v
        return agg

    for name, label, head in (
            (QUOTA_DENIED, "tenant", "quota denials"),
            (DOWNGRADES, "tenant", "admission downgrades")):
        metric = collector.metrics._metrics.get(name)
        if isinstance(metric, Counter) and metric.series:
            total = sum(metric.series.values())
            parts = ", ".join(f"{k}={v:g}" for k, v in
                              sorted(_by_label(metric, label).items()))
            out.append(f"{head}: {total:g} ({parts})")
    rlat = collector.metrics._metrics.get(REQUEST_LATENCY)
    if isinstance(rlat, Histogram) and rlat.series:
        out.append("request latency by class (arrival->done, modeled ms):")
        for key, series in sorted(rlat.series.items()):
            s = series.summary()
            out.append(f"  {dict(key).get('cls', '?')}: "
                       f"count {s['count']}, p50 {s['p50']:.3f}, "
                       f"p95 {s['p95']:.3f}, p99 {s['p99']:.3f}")
    chunks = collector.metrics._metrics.get(CHUNKS_TOTAL)
    if isinstance(chunks, Counter) and chunks.series:
        parts = ", ".join(
            f"{dict(k).get('device', '?')}/{dict(k).get('status', '?')}={v:g}"
            for k, v in sorted(chunks.series.items()))
        out.append(f"chunks (device/status): {parts}")
    br = collector.metrics._metrics.get(BREAKER_TRANSITIONS)
    if isinstance(br, Counter) and br.series:
        out.append("breaker transitions:")
        for key, value in sorted(br.series.items()):
            labels = dict(key)
            out.append(f"  {labels.get('device', '?')}: "
                       f"{labels.get('from', '?')} -> "
                       f"{labels.get('to', '?')}: {value:g}")
    lc = collector.metrics._metrics.get(LIFECYCLE_TRANSITIONS)
    if isinstance(lc, Counter) and lc.series:
        out.append("lifecycle transitions:")
        for key, value in sorted(lc.series.items()):
            labels = dict(key)
            out.append(f"  {labels.get('device', '?')}: "
                       f"{labels.get('from', '?')} -> "
                       f"{labels.get('to', '?')}: {value:g}")
    for name, label, head in (
            (HEDGES_TOTAL, "outcome", "hedged chunks"),
            (CANARY_TOTAL, "result", "readmission canaries"),
            (CHUNK_RETRIES, "kind", "chunk retries"),
            (DEGRADED_TOTAL, "reason", "degraded to CPU chain"),
            (DEADLINE_MISSES, "job", "deadline misses"),
            (QUEUE_REJECTED, "reason", "admission rejections"),
            (SHED_TOTAL, "cls", "shed jobs")):
        metric = collector.metrics._metrics.get(name)
        if isinstance(metric, Counter) and metric.series:
            total = sum(metric.series.values())
            parts = ", ".join(f"{k}={v:g}" for k, v in
                              sorted(_by_label(metric, label).items()))
            out.append(f"{head}: {total:g} ({parts})")
    lat = collector.metrics._metrics.get(SERVE_LATENCY)
    if isinstance(lat, Histogram) and lat.series:
        out.append("latency by class (modeled ms):")
        for key, series in sorted(lat.series.items()):
            s = series.summary()
            out.append(f"  {dict(key).get('cls', '?')}: "
                       f"count {s['count']}, p50 {s['p50']:.3f}, "
                       f"p95 {s['p95']:.3f}, p99 {s['p99']:.3f}")
    if out:
        out.insert(0, "serving:")
    return out


def verify_summary(collector: Collector) -> list[str]:
    """Readable lines for the verification metrics, empty when none.

    Renders ``verify.cells{status,...}`` per status and per engine, and
    ``fuzz.cases{status}`` -- the coverage view of a ``repro verify`` /
    ``repro fuzz`` run.
    """
    from .metrics import FUZZ_CASES, VERIFY_CELLS, Counter

    out: list[str] = []
    cells = collector.metrics._metrics.get(VERIFY_CELLS)
    if isinstance(cells, Counter) and cells.series:
        by_status: dict[str, float] = {}
        by_engine: dict[str, float] = {}
        failing: dict[str, float] = {}
        for key, value in cells.series.items():
            labels = dict(key)
            status = labels.get("status", "?")
            by_status[status] = by_status.get(status, 0.0) + value
            eng = labels.get("engine", "?")
            by_engine[eng] = by_engine.get(eng, 0.0) + value
            if status == "fail":
                cell = (f"{labels.get('solver', '?')}/"
                        f"{labels.get('matrix_class', '?')}")
                failing[cell] = failing.get(cell, 0.0) + value
        total = sum(by_status.values())
        parts = ", ".join(f"{k}={v:g}" for k, v in sorted(by_status.items()))
        out.append(f"differential cells: {total:g} ({parts})")
        parts = ", ".join(f"{k}={v:g}" for k, v in sorted(by_engine.items()))
        out.append(f"  by engine: {parts}")
        for cell, value in sorted(failing.items()):
            out.append(f"  FAILING {cell}: {value:g}")
    fuzz = collector.metrics._metrics.get(FUZZ_CASES)
    if isinstance(fuzz, Counter) and fuzz.series:
        total = sum(fuzz.series.values())
        parts = ", ".join(f"{dict(k).get('status', '?')}={v:g}"
                          for k, v in sorted(fuzz.series.items()))
        out.append(f"fuzz cases: {total:g} ({parts})")
    if out:
        out.insert(0, "verification:")
    return out


def estimator_summary(collector: Collector) -> list[str]:
    """Readable lines for the modeled-vs-actual cost residuals, empty
    when the scheduler recorded none.

    ``estimator.cost_residual{solver,layout,n}`` holds the signed
    relative error of each scheduler cost estimate against the
    realized modeled-clock cost -- the calibration table ROADMAP
    items 1-2 (autotuner) consume.
    """
    from .metrics import COST_RESIDUAL, Histogram

    cr = collector.metrics._metrics.get(COST_RESIDUAL)
    if not isinstance(cr, Histogram) or not cr.series:
        return []
    out = ["estimator residuals (modeled actual vs estimate, "
           "relative error):"]
    for key, series in sorted(cr.series.items()):
        labels = dict(key)
        s = series.summary()
        out.append(f"  {labels.get('solver', '?')}/"
                   f"{labels.get('layout', '?')} n={labels.get('n', '?')}: "
                   f"count {s['count']}, mean {s['mean']:+.3f}, "
                   f"p50 {s['p50']:+.3f}, p95 {s['p95']:+.3f}, "
                   f"max {s['max']:+.3f}")
    return out


# ----------------------------------------------------------------------
# Trace trees
# ----------------------------------------------------------------------

def trace_trees(collector: Collector) -> dict[str, dict]:
    """Group spans by trace id and check each trace's connectivity.

    Returns ``{trace_id: {"root": SpanRecord | None,
    "spans": [SpanRecord, ...], "connected": bool}}``.  A trace is
    *connected* when it has exactly one root (a span whose parent is
    missing or outside the trace) and every other span's parent lies
    inside the trace -- the acceptance shape for "every job's spans
    form one tree".  Untraced spans (``trace_id is None``) are ignored.
    """
    groups: dict[str, list] = {}
    for s in collector.spans:
        if s.trace_id is not None:
            groups.setdefault(s.trace_id, []).append(s)
    out: dict[str, dict] = {}
    for trace_id, spans in groups.items():
        ids = {s.span_id for s in spans}
        roots = [s for s in spans
                 if s.parent_id is None or s.parent_id not in ids]
        out[trace_id] = {
            "root": roots[0] if len(roots) == 1 else None,
            "spans": spans,
            "connected": len(roots) == 1,
        }
    return out


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_NAME_SAFE = None


def _prom_name(name: str) -> str:
    """Sanitize a metric name into the Prometheus grammar, prefixed
    ``repro_``."""
    global _NAME_SAFE
    if _NAME_SAFE is None:
        import re
        _NAME_SAFE = re.compile(r"[^a-zA-Z0-9_:]")
    return "repro_" + _NAME_SAFE.sub("_", name)


def _prom_labels(key, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    rendered = []
    for k, v in pairs:
        v = str(v).replace("\\", r"\\").replace('"', r'\"')
        v = v.replace("\n", r"\n")
        rendered.append(f'{k}="{v}"')
    return "{" + ",".join(rendered) + "}"


def _prom_float(value: float) -> str:
    import math as _math
    if _math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(collector: Collector) -> str:
    """Prometheus text-format exposition of the collector's registry.

    Counters gain the conventional ``_total`` suffix; histograms emit
    cumulative ``_bucket{le=...}`` series from the log-linear bucket
    edges plus ``_sum``/``_count``.  Output ordering is fully
    deterministic (name-sorted families, label-sorted series), so two
    identical seeded runs produce identical expositions.
    """
    from .metrics import Counter, Gauge, Histogram

    lines: list[str] = []
    for metric in collector.metrics.families():
        if isinstance(metric, Counter):
            name = _prom_name(metric.name)
            if not name.endswith("_total"):
                name += "_total"
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} counter")
            for key, value in sorted(metric.series.items()):
                lines.append(f"{name}{_prom_labels(key)} "
                             f"{_prom_float(value)}")
        elif isinstance(metric, Gauge):
            name = _prom_name(metric.name)
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} gauge")
            for key, value in sorted(metric.series.items()):
                lines.append(f"{name}{_prom_labels(key)} "
                             f"{_prom_float(value)}")
        elif isinstance(metric, Histogram):
            name = _prom_name(metric.name)
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} histogram")
            for key, series in sorted(metric.series.items()):
                for upper, cum in series.cumulative():
                    le = (("le", _prom_float(upper)),)
                    lines.append(f"{name}_bucket{_prom_labels(key, le)} "
                                 f"{cum}")
                inf = (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_prom_labels(key, inf)} "
                             f"{series.count}")
                lines.append(f"{name}_sum{_prom_labels(key)} "
                             f"{_prom_float(series.sum)}")
                lines.append(f"{name}_count{_prom_labels(key)} "
                             f"{series.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(collector: Collector, path: str) -> str:
    with open(path, "w") as fh:
        fh.write(prometheus_text(collector))
    return path


def text_summary(collector: Collector, cost_model=None) -> str:
    """Human-readable session roll-up."""
    out: list[str] = []
    reports = _reports(collector, cost_model)
    out.append("telemetry summary")
    out.append("=================")
    out.append(f"spans: {len(collector.spans)}  "
               f"events: {len(collector.events)}  "
               f"launches: {len(collector.launches)}")
    if reports:
        out.append("")
        out.append("launches (modeled):")
        for rec, rep in reports:
            out.append(f"  #{rec.seq} {rec.kernel}: "
                       f"{rec.num_blocks} x {rec.threads_per_block} "
                       f"threads on {rec.device}, "
                       f"{rep.total_ms:.4f} ms modeled "
                       f"({rep.blocks_per_sm} blocks/SM, "
                       f"{rep.waves} wave(s))")
        out.append("")
        out.append("per-phase modeled time (all launches):")
        for name, agg in phase_totals(collector, cost_model).items():
            out.append(f"  {name}: {agg['total_ms']:.4f} ms "
                       f"(global {agg['global_ms']:.4f}, "
                       f"shared {agg['shared_ms']:.4f}, "
                       f"compute {agg['compute_ms']:.4f})")
        g = sum(rep.global_ms for _r, rep in reports)
        s = sum(rep.shared_ms for _r, rep in reports)
        c = sum(rep.compute_ms for _r, rep in reports)
        out.append("")
        out.append("resource split (as analysis/breakdown.py):")
        out.append(f"  global {g:.4f} ms, shared {s:.4f} ms, "
                   f"compute {c:.4f} ms (incl. launch overhead), "
                   f"total {g + s + c:.4f} ms")
    res = resilience_summary(collector)
    if res:
        out.append("")
        out.extend(res)
    srv = serve_summary(collector)
    if srv:
        out.append("")
        out.extend(srv)
    ver = verify_summary(collector)
    if ver:
        out.append("")
        out.extend(ver)
    est = estimator_summary(collector)
    if est:
        out.append("")
        out.extend(est)
    snap = collector.metrics.snapshot()
    for kind in ("counters", "gauges"):
        if snap[kind]:
            out.append("")
            out.append(f"{kind}:")
            for name, series in snap[kind].items():
                for labels, value in series.items():
                    label = "" if labels == "_" else labels
                    out.append(f"  {name}{label} = {value:g}")
    if snap["histograms"]:
        out.append("")
        out.append("histograms:")
        for name, series in snap["histograms"].items():
            for labels, summ in series.items():
                label = "" if labels == "_" else labels
                if summ["count"] == 0:
                    continue
                out.append(
                    f"  {name}{label}: count {summ['count']}, "
                    f"mean {summ['mean']:.3f}, p50 {summ['p50']:.3f}, "
                    f"p95 {summ['p95']:.3f}, max {summ['max']:.3f}")
    if collector.spans:
        out.append("")
        out.append("wall-clock spans:")
        children: dict[int | None, list] = {}
        for sp in collector.spans:
            children.setdefault(sp.parent_id, []).append(sp)

        def walk(parent_id, depth):
            for sp in children.get(parent_id, []):
                dur = ("..." if sp.wall_dur_s is None
                       else f"{sp.wall_dur_s * 1e3:.2f} ms")
                modeled = sp.attrs.get("modeled_ms")
                extra = (f"  [modeled {modeled:.4f} ms]"
                         if isinstance(modeled, float) else "")
                out.append(f"  {'  ' * depth}{sp.name}: {dur}{extra}")
                walk(sp.span_id, depth + 1)

        walk(None, 0)
    return "\n".join(out) + "\n"


def write_summary(collector: Collector, path: str,
                  cost_model=None) -> str:
    with open(path, "w") as fh:
        fh.write(text_summary(collector, cost_model))
    return path
