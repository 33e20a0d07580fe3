"""Device circuit inside the health lifecycle: the full closed -> open
-> half-open -> closed walk, plus the failure paths off it.

Transitions are read from the ``serve.breaker`` events and from
``DeviceHealth``; the lifecycle is kept out of the way with signal
thresholds no EWMA can reach and an empty flap window."""

import json

import pytest

from repro import telemetry
from repro.gpusim.pool import make_pool
from repro.serve import (CLOSED, HALF_OPEN, OPEN, DeviceHealth,
                         HealthMonitor, HealthPolicy)


def make_monitor(**kw) -> HealthMonitor:
    kw.setdefault("failure_threshold", 3)
    kw.setdefault("cooldown_ms", 10.0)
    kw.setdefault("quarantine_fault_rate", 2.0)
    kw.setdefault("suspect_fault_rate", 2.0)
    kw.setdefault("trip_limit", 99)
    return HealthMonitor(make_pool(1, seed=1), policy=HealthPolicy(**kw))


def fail(mon, t, kind="launch_error"):
    mon.observe_attempt("gpu0", kind, now_ms=t)


def succeed(mon, t):
    mon.observe_attempt("gpu0", "ok", ratio=1.0, now_ms=t)


def circuit_moves(col):
    return [(e.attrs["from"], e.attrs["to"], e.attrs["reason"])
            for e in col.events if e.name == "serve.breaker"]


@pytest.fixture
def col():
    with telemetry.collect() as c:
        yield c


class TestClosedToOpen:
    def test_trips_after_threshold_consecutive_failures(self, col):
        mon = make_monitor()
        h = mon.devices["gpu0"]
        for t in (1.0, 2.0):
            fail(mon, t)
            assert h.circuit == CLOSED
        fail(mon, 3.0)
        assert h.circuit == OPEN
        assert h.opened_at_ms == 3.0
        assert circuit_moves(col) == [(CLOSED, OPEN, "trip")]

    def test_success_resets_the_consecutive_count(self):
        mon = make_monitor()
        fail(mon, 1.0)
        fail(mon, 2.0)
        succeed(mon, 3.0)
        fail(mon, 4.0)
        fail(mon, 5.0)
        assert mon.devices["gpu0"].circuit == CLOSED   # never 3 in a row
        fail(mon, 6.0)
        assert mon.devices["gpu0"].circuit == OPEN

    def test_residual_miss_leaves_the_circuit_alone(self):
        mon = make_monitor()
        fail(mon, 1.0)
        fail(mon, 2.0)
        mon.observe_attempt("gpu0", "residual", now_ms=3.0)
        assert mon.devices["gpu0"].consecutive_failures == 2
        fail(mon, 4.0)
        assert mon.devices["gpu0"].circuit == OPEN


class TestOpenToHalfOpenToClosed:
    def trip(self, mon):
        for t in (1.0, 2.0, 3.0):
            fail(mon, t)
        assert mon.devices["gpu0"].circuit == OPEN

    def test_open_blocks_until_cooldown(self):
        mon = make_monitor()
        self.trip(mon)
        assert not mon.allows("gpu0", 5.0)   # 2ms into a 10ms cooldown
        assert mon.allows("gpu0", 13.0)
        assert mon.devices["gpu0"].circuit == OPEN   # asking moves nothing

    def test_full_recovery_walk(self, col):
        """closed -> open -> half-open -> closed, transition by
        transition."""
        mon = make_monitor()
        h = mon.devices["gpu0"]
        self.trip(mon)                        # closed -> open at 3.0
        assert mon.allows("gpu0", 13.0)
        mon.admit("gpu0", 13.0)               # the pick half-opens it
        assert h.circuit == HALF_OPEN
        succeed(mon, 14.0)
        assert h.circuit == HALF_OPEN         # needs 2 probe successes
        succeed(mon, 15.0)
        assert h.circuit == CLOSED
        assert h.consecutive_failures == 0
        assert circuit_moves(col) == [
            (CLOSED, OPEN, "trip"),
            (OPEN, HALF_OPEN, "cooldown"),
            (HALF_OPEN, CLOSED, "probe_ok"),
        ]

    def test_failed_probe_reopens_and_restarts_cooldown(self, col):
        mon = make_monitor()
        h = mon.devices["gpu0"]
        self.trip(mon)
        mon.admit("gpu0", 13.0)
        fail(mon, 14.0)
        assert h.circuit == OPEN
        assert h.opened_at_ms == 14.0
        assert h.open_times == [3.0, 14.0]
        assert not mon.allows("gpu0", 20.0)   # new cooldown, not the old
        assert mon.allows("gpu0", 24.5)
        mon.admit("gpu0", 24.5)
        assert h.circuit == HALF_OPEN
        assert [m[2] for m in circuit_moves(col)] == \
            ["trip", "cooldown", "probe_failed", "cooldown"]

    def test_transitions_counted_in_telemetry(self, col):
        mon = make_monitor()
        self.trip(mon)
        mon.admit("gpu0", 13.0)
        counter = col.metrics.counter("serve.breaker_transitions")
        assert counter.value(device="gpu0", **{"from": CLOSED,
                                               "to": OPEN}) == 1
        assert counter.value(device="gpu0", **{"from": OPEN,
                                               "to": HALF_OPEN}) == 1


class TestSerialisation:
    def test_state_dict_round_trip(self):
        mon = make_monitor()
        for t in (1.0, 2.0, 3.0):
            fail(mon, t)
        mon.admit("gpu0", 13.0)
        snap = mon.state_dict()
        fresh = make_monitor()
        fresh.load_state_dict(snap)
        h = fresh.devices["gpu0"]
        assert h.circuit == HALF_OPEN
        assert h.opened_at_ms == 3.0
        assert fresh.state_dict() == snap

    def test_state_dict_is_json_ready(self):
        mon = make_monitor()
        fail(mon, 1.0)
        d = mon.devices["gpu0"].to_dict()
        assert json.loads(json.dumps(d)) == d
        assert DeviceHealth.from_dict("gpu0", d) == mon.devices["gpu0"]
