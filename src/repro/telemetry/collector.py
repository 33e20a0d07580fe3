"""The process-local telemetry collector and the module-level API.

One :class:`Collector` gathers everything observable about a stretch of
work: wall-clock spans and events (:mod:`repro.telemetry.spans`), a
metrics registry (:mod:`repro.telemetry.metrics`), and a record of
every simulated kernel launch, including the full
:class:`~repro.gpusim.executor.LaunchResult` needed to re-cost the run
at export time.  The executor reports each launch straight to the
active collector (:meth:`Collector.launch`); per-phase and per-step
detail is derived from the launch's counter ledger, not observed live.

Nothing is collected unless a collector is active::

    from repro import telemetry

    with telemetry.collect() as col:
        x, res = run_kernel("cr_pcr", systems)
    print(col.metrics.counter("sim.launches").value(kernel="cr_pcr_kernel"))

With no active collector every instrumentation site reduces to one
``None`` check (``span()`` returns the shared no-op singleton and the
executor skips the launch record), which is what keeps the solve path
overhead-free by default.

Trace context
-------------
Spans carry an optional ``trace_id``: a stable string identifying one
logical request (one serve job, say).  A span opened without an
explicit trace inherits its parent's, so instrumenting the root of a
request is enough for every nested span -- down to the simulator's
``sim.launch`` spans -- to land in the same tree.
:func:`trace_span` opens a span with explicit trace context (and
optionally *detached*, i.e. not the implicit parent of what follows).

Determinism
-----------
``Collector(seed=...)`` makes span/event ids
``derive_seed(seed, kind, counter)`` instead of the bare arrival
counter, derived :data:`ID_BLOCK` at a time by
:func:`repro.gpusim.pool.derive_seeds` (a fraction of a microsecond
each), and :class:`TickClock` replaces ``time.perf_counter`` with a
deterministic tick, so two identical seeded runs export
bitwise-identical JSONL span logs (:func:`deterministic_collector`
bundles both).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.gpusim.pool import derive_seed, derive_seeds

from . import metrics as _metrics
from .metrics import MetricsRegistry, Write, resolve
from .spans import (LiveSpan, NOOP_SPAN, EventRecord, NoopSpan,
                    SpanRecord)

ID_BLOCK = 1024  #: seeded span/event ids derived per call, per kind


class TickClock:
    """Deterministic clock: every read advances one fixed tick.

    Substituting it for ``time.perf_counter`` makes every wall-clock
    field in the export a pure function of the sequence of
    instrumentation calls -- which a seeded run fixes -- so the JSONL
    log becomes bitwise-reproducible.
    """

    __slots__ = ("tick_s", "_now_s")

    def __init__(self, tick_s: float = 1e-6):
        self.tick_s = float(tick_s)
        self._now_s = 0.0

    def __call__(self) -> float:
        self._now_s += self.tick_s
        return self._now_s


@dataclass
class LaunchRecord:
    """One simulated kernel launch (:meth:`Collector.launch`)."""

    seq: int
    kernel: str
    num_blocks: int
    threads_per_block: int
    device: str
    #: The executor's LaunchResult (None if the kernel raised).
    result: Any = None
    #: Innermost wall-clock span open when the launch began.
    span_id: int | None = None


class Collector:
    """Accumulates spans, events, metrics and launch records.

    ``seed`` switches id assignment from the plain arrival counter to
    seed-derived 32-bit ids (``derive_seed(seed, "span", counter)``,
    read from per-kind blocks), making ids a function of the seed
    rather than of how many other collectors or objects existed before
    -- the property the serve determinism suite asserts.
    """

    def __init__(self, clock=time.perf_counter, seed: int | None = None):
        self._clock = clock
        self._t0 = clock()
        self.seed = seed
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.launches: list[LaunchRecord] = []
        self.metrics = MetricsRegistry()
        self._stack: list[SpanRecord] = []
        self._counters = {"span": 0, "event": 0}
        #: kind -> the seeded ids left in its current block, last first.
        self._id_blocks: dict[str, list[int]] = {"span": [], "event": []}
        self._by_id: dict[int, SpanRecord] = {}

    def _now(self) -> float:
        return self._clock() - self._t0

    # -- ids -----------------------------------------------------------

    def _new_id(self, kind: str) -> int:
        """The next ``kind`` counter, or under a seed its
        ``derive_seed(seed, kind, counter)``, read from a block of
        :data:`ID_BLOCK` ids that stops where the counter grows a word."""
        counter = self._counters[kind] = self._counters[kind] + 1
        if self.seed is None:
            return counter
        ids = self._id_blocks[kind]
        if not ids:
            words = -(-counter.bit_length() // 32)
            block = range(counter, min(counter + ID_BLOCK, 1 << 32 * words))
            ids += derive_seeds(self.seed, kind, counters=block)[::-1].tolist()
        return ids.pop()

    def _new_span_id(self) -> int:
        ident, salt = self._new_id("span"), 0
        while ident in self._by_id:      # deterministic collision bump
            salt += 1
            ident = derive_seed(self.seed, "span", self._counters["span"],
                                salt)
        return ident

    # -- spans / events ------------------------------------------------

    def start_span(self, name: str, attrs: dict[str, Any] | None = None,
                   *, parent_id: int | None = None,
                   trace_id: str | None = None,
                   detached: bool = False) -> LiveSpan:
        """Build a live span, which takes ``attrs`` over.

        ``parent_id``/``trace_id`` pin explicit trace context; when
        omitted they fall back to the open-span stack at enter time.
        ``detached`` registers and times the span without making it
        the implicit parent of subsequently opened spans.
        """
        record = SpanRecord(self._new_span_id(), parent_id, name,
                            {} if attrs is None else attrs,
                            trace_id=trace_id)
        return LiveSpan(self, record, detached)

    def _enter_span(self, record: SpanRecord,
                    detached: bool = False) -> None:
        if record.parent_id is None and self._stack:
            record.parent_id = self._stack[-1].span_id
        if record.trace_id is None and record.parent_id is not None:
            parent = self._by_id.get(record.parent_id)
            if parent is not None:
                record.trace_id = parent.trace_id
        record.wall_start_s = self._clock() - self._t0      # _now()
        if not detached:
            self._stack.append(record)
        self.spans.append(record)
        self._by_id[record.span_id] = record

    def _exit_span(self, record: SpanRecord) -> None:
        record.wall_dur_s = self._clock() - self._t0 - record.wall_start_s
        if self._stack and self._stack[-1] is record:
            self._stack.pop()
        elif record in self._stack:          # mismatched exit order
            self._stack.remove(record)

    def current_span(self) -> SpanRecord | None:
        return self._stack[-1] if self._stack else None

    def add_event(self, name: str, attrs: dict[str, Any] | None = None,
                  span_id: int | None = None) -> EventRecord:
        if span_id is None and self._stack:
            span_id = self._stack[-1].span_id
        ev = EventRecord(name=name, wall_s=self._now(),
                         attrs={} if attrs is None else attrs,
                         span_id=span_id, event_id=self._new_id("event"))
        self.events.append(ev)
        return ev

    # -- simulated launches --------------------------------------------

    def launch(self, kernel: str, num_blocks: int, threads_per_block: int,
               device: str) -> "_Launch":
        """Observe one simulated launch: the executor enters this around
        the kernel and sets the yielded record's ``result``.

        Opens the ``sim.launch:<kernel>`` span and appends the record;
        on exit records ``sim.launches`` and, for a completed launch
        (``result`` set, even when ECC then raised), its ``sim.*``
        ledger totals, plus ``sim.steps`` and ``sim.conflict_degree``
        from the ledger's step records.  A planned launch whose ledger
        is unread replays those writes, resolved once, from its memo
        entry (:meth:`LaunchResult.memo_entry
        <repro.gpusim.executor.LaunchResult.memo_entry>`).
        """
        return _Launch(self, kernel, num_blocks, threads_per_block, device)


class _Launch:
    """:meth:`Collector.launch`'s context (a generator cost more)."""

    __slots__ = ("collector", "args", "record", "span")

    def __init__(self, collector: Collector, *args):
        self.collector = collector
        self.args = args

    def __enter__(self) -> LaunchRecord:
        col = self.collector
        kernel, num_blocks, threads_per_block, device = self.args
        self.record = LaunchRecord(
            len(col.launches), kernel, num_blocks, threads_per_block,
            device, span_id=col._stack[-1].span_id if col._stack else None)
        col.launches.append(self.record)
        self.span = col.start_span(
            f"sim.launch:{kernel}",
            {"kernel": kernel, "num_blocks": num_blocks,
             "threads_per_block": threads_per_block}).record
        col._enter_span(self.span)
        return self.record

    def __exit__(self, *exc) -> None:
        col, kernel = self.collector, self.args[0]
        try:
            result = self.record.result
            entry = None if result is None else result.memo_entry()
            col.metrics.replay(
                _launch_writes(kernel, result) if entry is None
                else entry.derive(("sim", kernel), lambda: (
                    _launch_writes(kernel, entry))))
        finally:
            col._exit_span(self.span)


def _launch_writes(kernel: str, result: Any) -> tuple[Write, ...]:
    """The resolved ``sim.*`` writes of one launch (``result`` None: it
    raised before completing)."""
    writes = [resolve("sim.launches", kernel=kernel)]
    if result is not None:
        writes.append(resolve("sim.blocks_per_sm", result.blocks_per_sm,
                              kernel=kernel))
        total = result.ledger.total()
        for name, amount in (("sim.shared_words", total.shared_words),
                             ("sim.global_words", total.global_words),
                             ("sim.flops", total.flops),
                             ("sim.syncs", total.syncs)):
            writes.append(resolve(name, amount, kernel=kernel))
        for phase, _index, counters in result.ledger.step_records:
            writes.append(resolve("sim.steps", phase=phase))
            writes.append(resolve("sim.conflict_degree",
                                  counters.conflict_degree, phase=phase))
    return tuple(writes)


def deterministic_collector(seed: int = 0,
                            tick_s: float = 1e-6) -> Collector:
    """A collector whose export is bitwise-reproducible under seeded
    workloads: seed-derived span/event ids and a :class:`TickClock`."""
    return Collector(clock=TickClock(tick_s), seed=seed)


# ----------------------------------------------------------------------
# Module-level state: the process-local default collector.
# ----------------------------------------------------------------------

_active: Collector | None = None


def enabled() -> bool:
    """True when a collector is active in this process."""
    return _active is not None


def get_collector() -> Collector | None:
    return _active


@contextmanager
def collect(collector: Collector | None = None) -> Iterator[Collector]:
    """Activate a collector for the enclosed block (re-entrant: an
    inner ``collect()`` shadows, then restores, the outer one)."""
    global _active
    prev = _active
    col = _active = collector or Collector()
    _metrics._active = col.metrics
    try:
        yield col
    finally:
        _active = prev
        _metrics._active = None if prev is None else prev.metrics


def span(name: str, **attrs: Any) -> LiveSpan | NoopSpan:
    """Open a named span on the active collector; a shared no-op when
    telemetry is disabled."""
    col = _active
    if col is None:
        return NOOP_SPAN
    return col.start_span(name, attrs)


def trace_span(name: str, *, trace_id: str | None = None,
               parent_id: int | None = None, detached: bool = False,
               **attrs: Any) -> LiveSpan | NoopSpan:
    """Open a span with explicit trace context (see
    :meth:`Collector.start_span`); a shared no-op when disabled."""
    col = _active
    if col is None:
        return NOOP_SPAN
    return col.start_span(name, attrs, parent_id=parent_id,
                          trace_id=trace_id, detached=detached)


def event(name: str, **attrs: Any) -> None:
    """Record a point event on the active collector (no-op when
    disabled)."""
    col = _active
    if col is not None:
        col.add_event(name, attrs)


def current_span() -> SpanRecord | None:
    col = _active
    return col.current_span() if col is not None else None


def current_attr(key: str, default: Any = None) -> Any:
    """Look up ``key`` on the innermost open span, walking outwards.

    Lets deep layers (the cost model) label their metrics with context
    set high up (the solver name from ``run_kernel``'s span).
    """
    col = _active
    if col is None:
        return default
    for record in reversed(col._stack):
        if key in record.attrs:
            return record.attrs[key]
    return default
