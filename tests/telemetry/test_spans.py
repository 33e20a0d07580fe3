"""Span lifecycle: no-op when disabled, nesting, context attributes."""

import pytest

from repro import telemetry
from repro.gpusim import launch
from repro.telemetry.spans import NOOP_SPAN, SpanRecord


class TestDisabled:
    def test_no_collector_by_default(self):
        assert not telemetry.enabled()
        assert telemetry.get_collector() is None

    def test_span_returns_shared_noop_singleton(self):
        assert telemetry.span("a") is telemetry.span("b")
        assert telemetry.span("a") is NOOP_SPAN

    def test_noop_span_absorbs_everything(self):
        with telemetry.span("x", k=1) as sp:
            sp.set_attr("y", 2)
            sp.event("e", z=3)
        assert telemetry.current_span() is None

    def test_event_without_collector_is_noop(self):
        telemetry.event("orphan", detail="ignored")
        assert telemetry.get_collector() is None


class TestCollect:
    def test_spans_record_and_nest(self):
        with telemetry.collect() as col:
            with telemetry.span("outer", solver="cr") as outer:
                with telemetry.span("inner") as inner:
                    pass
        assert [s.name for s in col.spans] == ["outer", "inner"]
        rec_outer = next(s for s in col.spans if s.name == "outer")
        rec_inner = next(s for s in col.spans if s.name == "inner")
        assert rec_inner.parent_id == rec_outer.span_id
        assert rec_outer.parent_id is None
        assert rec_outer.attrs["solver"] == "cr"
        assert rec_outer.wall_dur_s >= 0.0

    def test_stack_unwinds(self):
        with telemetry.collect():
            with telemetry.span("a"):
                assert telemetry.current_span().name == "a"
            assert telemetry.current_span() is None

    def test_current_attr_walks_open_stack(self):
        with telemetry.collect():
            with telemetry.span("outer", solver="pcr"):
                with telemetry.span("inner"):
                    assert telemetry.current_attr("solver") == "pcr"
            assert telemetry.current_attr("solver", "dflt") == "dflt"

    def test_events_attach_to_open_span(self):
        with telemetry.collect() as col:
            with telemetry.span("host") as sp:
                sp.event("milestone", step=3)
        ev = col.events[0]
        assert ev.name == "milestone"
        assert ev.attrs["step"] == 3
        assert ev.span_id == col.spans[0].span_id

    def test_collect_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with telemetry.collect():
                assert telemetry.enabled()
                raise RuntimeError("boom")
        assert not telemetry.enabled()

    def test_nested_collect_restores_outer(self):
        with telemetry.collect() as outer:
            with telemetry.collect() as inner:
                assert telemetry.get_collector() is inner
            assert telemetry.get_collector() is outer
        assert telemetry.get_collector() is None

    def test_span_exit_closes_record_even_on_error(self):
        with telemetry.collect() as col:
            with pytest.raises(ValueError):
                with telemetry.span("doomed"):
                    raise ValueError
        assert col.spans[0].wall_dur_s is not None
        assert telemetry.current_span() is None


class TestIdentity:
    """Span records compare by identity: the stacks pop the record that
    closes, never an equal-looking neighbour."""

    def test_equal_records_closed_out_of_order_remove_themselves(self):
        col = telemetry.Collector(clock=lambda: 0.0)
        a, b, c = (SpanRecord(span_id=5, parent_id=1, name="x")
                   for _ in range(3))
        for record in (a, b, c):
            col._enter_span(record)
        assert a != b                    # equal fields, distinct spans
        col._exit_span(b)                # mismatched exit order
        assert list(map(id, col._stack)) == [id(a), id(c)]
        col._exit_span(a)
        assert list(map(id, col._stack)) == [id(c)]
        col._exit_span(c)
        assert col._stack == []

    def test_launch_ending_mid_phase_leaves_stacks_balanced(self):
        def raising_kernel(ctx):
            with ctx.phase("p"):
                raise RuntimeError("mid-phase")

        with telemetry.collect() as col:
            with telemetry.span("host") as host:
                with pytest.raises(RuntimeError, match="mid-phase"):
                    launch(raising_kernel, num_blocks=1,
                           threads_per_block=32)
                assert col._stack == [host.record]
            assert col._stack == []
        assert [s.name for s in col.spans] == [
            "host", "sim.launch:raising_kernel"]
        assert all(s.wall_dur_s is not None for s in col.spans)
        [rec] = col.launches
        assert rec.result is None
        assert rec.span_id == host.record.span_id
