"""Span and event records: the wall-clock side of the telemetry model.

A *span* is a named, nested interval (``telemetry.span("solve", ...)``)
carrying free-form attributes; instrumented layers attach both
wall-clock durations (measured here) and *modeled*-time attributes
(milliseconds from the GT200 cost model) to the same span, which is
what makes the export diffable against real profiler output.  An
*event* is a point-in-time record attached to the innermost open span.

The disabled path matters more than the enabled one: ``span()`` with no
active collector returns the shared :data:`NOOP_SPAN` singleton, whose
every method is a constant no-op -- no allocation, no clock read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(eq=False, slots=True)
class SpanRecord:
    """One span on the wall-clock timeline; compared by identity."""

    span_id: int
    parent_id: int | None
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Seconds since the collector's epoch (perf_counter based).
    wall_start_s: float = 0.0
    wall_dur_s: float | None = None
    #: Trace-context id: spans of one logical request (e.g. one serve
    #: job, admit -> chunks -> launches) share a trace_id and form one
    #: tree through ``parent_id``.  Inherited from the parent span when
    #: not set explicitly; ``None`` for untraced spans.
    trace_id: str | None = None


@dataclass(slots=True)
class EventRecord:
    """Point-in-time event, attributed to the innermost open span."""

    name: str
    wall_s: float
    attrs: dict[str, Any] = field(default_factory=dict)
    span_id: int | None = None
    #: Stable id (seed-derived under deterministic collectors).
    event_id: int | None = None


class NoopSpan:
    """Inert span returned when telemetry is disabled.

    Supports the full live-span surface so instrumentation sites can be
    written once, without an enabled/disabled branch at every call.
    """

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set_attr(self, key: str, value: Any) -> None:
        return None

    def event(self, name: str, **attrs: Any) -> None:
        return None


#: The process-wide disabled span; identity-comparable in tests.
NOOP_SPAN = NoopSpan()


class LiveSpan:
    """Context manager binding one :class:`SpanRecord` to a collector.

    A *detached* span is registered and timed but never pushed on the
    collector's span stack: it does not become the implicit parent of
    spans opened while it is live.  The scheduler uses detached spans
    as per-job trace roots, which may interleave with other jobs'
    spans on the same collector.
    """

    __slots__ = ("_collector", "record", "_detached")

    def __init__(self, collector, record: SpanRecord,
                 detached: bool = False):
        self._collector = collector
        self.record = record
        self._detached = detached

    def __enter__(self) -> "LiveSpan":
        self._collector._enter_span(self.record, self._detached)
        return self

    def __exit__(self, *exc) -> None:
        self._collector._exit_span(self.record)

    def set_attr(self, key: str, value: Any) -> None:
        self.record.attrs[key] = value

    def event(self, name: str, **attrs: Any) -> None:
        self._collector.add_event(name, attrs, span_id=self.record.span_id)
