"""SLO registry: per-class accounting, burn rate, attribution."""

import json

import pytest

from repro.telemetry.slo import (DEFAULT_CLASS, DEFAULT_CLASSES, SLOClass,
                                 SLORegistry)


class TestSLOClass:
    def test_defaults_are_tiered(self):
        names = [c.name for c in DEFAULT_CLASSES]
        assert names == ["interactive", "standard", "batch"]
        bounds = [c.latency_p99_ms for c in DEFAULT_CLASSES]
        assert bounds == sorted(bounds)
        assert DEFAULT_CLASS == "standard"

    def test_budget_fraction(self):
        assert SLOClass("x", 5.0).budget_fraction() == pytest.approx(0.01)
        assert SLOClass("x", 5.0, objective=0.9).budget_fraction() == \
            pytest.approx(0.1)
        # A 100% objective must not divide by zero.
        assert SLOClass("x", 5.0, objective=1.0).budget_fraction() > 0


class TestRecording:
    def test_good_vs_violation_split(self):
        reg = SLORegistry()
        reg.record_job("standard", 10.0, "ok")      # within 50ms
        reg.record_job("standard", 80.0, "ok")      # over the bound
        reg.record_job("standard", 10.0, "failed")  # fast but not ok
        snap = reg.snapshot()["standard"]
        assert snap["jobs"] == 3
        assert snap["good"] == 1
        assert snap["violations"] == 2
        assert snap["outcomes"] == {"failed": 1, "ok": 2}

    def test_deadline_miss_attribution(self):
        reg = SLORegistry()
        reg.record_job("batch", 600.0, "deadline", deadline_slack_ms=-100.0)
        snap = reg.snapshot()["batch"]
        assert snap["deadline_misses"] == 1
        assert snap["deadline_slack_ms"]["max"] == -100.0

    def test_unknown_class_auto_registers(self):
        reg = SLORegistry()
        reg.record_job("mystery", 1.0, "ok")
        assert "mystery" in reg
        assert reg.slo_for("mystery").latency_p99_ms == 500.0
        assert "mystery" in reg.class_names()

    def test_shed_reasons_accumulate(self):
        reg = SLORegistry()
        reg.record_shed("interactive", "capacity")
        reg.record_shed("interactive", "capacity")
        reg.record_shed("interactive", "deadline_unmeetable")
        snap = reg.snapshot()["interactive"]
        assert snap["shed"] == 3
        assert snap["shed_reasons"] == {"capacity": 2,
                                        "deadline_unmeetable": 1}

    def test_breaker_trips_by_device(self):
        reg = SLORegistry()
        reg.record_breaker_trip("standard", "gpu0")
        reg.record_breaker_trip("standard", "gpu0")
        reg.record_breaker_trip("standard", "gpu1")
        snap = reg.snapshot()["standard"]
        assert snap["breaker_trips"] == {"gpu0": 2, "gpu1": 1}


class TestBurnRate:
    def test_zero_before_traffic(self):
        reg = SLORegistry()
        assert reg.snapshot()["standard"]["burn_rate"] == 0.0

    def test_all_good_burns_nothing(self):
        reg = SLORegistry()
        for _ in range(100):
            reg.record_job("standard", 1.0, "ok")
        assert reg.snapshot()["standard"]["burn_rate"] == 0.0

    def test_sustainable_pace_is_one(self):
        # objective 0.99: 1 violation in 100 jobs burns at exactly 1.0.
        reg = SLORegistry()
        for _ in range(99):
            reg.record_job("standard", 1.0, "ok")
        reg.record_job("standard", 100.0, "ok")
        assert reg.snapshot()["standard"]["burn_rate"] == pytest.approx(1.0)

    def test_shed_jobs_burn_budget(self):
        reg = SLORegistry()
        for _ in range(99):
            reg.record_job("standard", 1.0, "ok")
        reg.record_shed("standard", "capacity")
        assert reg.snapshot()["standard"]["burn_rate"] == pytest.approx(1.0)


class TestReporting:
    def fill(self, reg):
        reg.record_job("interactive", 2.0, "ok")
        reg.record_job("interactive", 9.0, "ok")
        reg.record_queue_wait("interactive", 0.5)
        reg.record_job("batch", 450.0, "ok", deadline_slack_ms=50.0)
        reg.record_shed("standard", "capacity")
        reg.record_breaker_trip("batch", "gpu1")

    def test_snapshot_is_json_stable(self):
        a, b = SLORegistry(), SLORegistry()
        self.fill(a)
        self.fill(b)
        assert json.dumps(a.snapshot(), sort_keys=True) == \
            json.dumps(b.snapshot(), sort_keys=True)

    def test_report_layout(self):
        reg = SLORegistry()
        self.fill(reg)
        text = reg.report()
        lines = text.splitlines()
        assert lines[0] == "== SLO report =="
        assert "class" in lines[1] and "burn" in lines[1]
        # Classes sorted, one row each.
        rows = [ln for ln in lines[2:] if not ln.strip().startswith("--")
                and not ln.strip().startswith(("shed", "breaker",
                                               "deadline"))]
        assert [r.split()[0] for r in rows] == ["batch", "interactive",
                                                "standard"]
        assert "-- attribution --" in text
        assert "shed    standard: [capacity] 1" in text
        assert "breaker batch: gpu1 tripped x1" in text

    def test_report_with_only_shed_jobs(self):
        # A class that only ever shed must render, with dashes for
        # quantiles (no latency samples exist).
        reg = SLORegistry()
        reg.record_shed("standard", "capacity")
        text = reg.report()
        row = next(ln for ln in text.splitlines()
                   if ln.strip().startswith("standard"))
        assert row.split()[1:4] == ["0", "1", "0"]
        assert "-" in row.split()

    def test_empty_registry_report(self):
        text = SLORegistry().report()
        assert "== SLO report ==" in text
        assert "-- attribution --" not in text

    def test_report_is_deterministic(self):
        a, b = SLORegistry(), SLORegistry()
        self.fill(a)
        self.fill(b)
        assert a.report() == b.report()


class TestMetricMirrors:
    """The registry emits its three collector metrics itself."""

    def test_mirrors_land_in_the_active_collector(self):
        from repro import telemetry
        from repro.telemetry.metrics import (DEADLINE_SLACK, QUEUE_WAIT,
                                             SHED_TOTAL)
        reg = SLORegistry()
        with telemetry.collect() as col:
            reg.record_queue_wait("interactive", 0.5)
            reg.record_job("batch", 450.0, "ok", deadline_slack_ms=-2.0)
            reg.record_job("batch", 10.0, "ok")     # no deadline: no slack
            reg.record_shed("standard", "capacity", tenant="t1")
            reg.record_shed("standard", "capacity")
        m = col.metrics
        assert m.histogram(QUEUE_WAIT).summary(cls="interactive")["sum"] \
            == 0.5
        assert m.histogram(DEADLINE_SLACK).count(cls="batch") == 1
        assert m.histogram(DEADLINE_SLACK).summary(cls="batch")["min"] \
            == -2.0
        shed = m.counter(SHED_TOTAL)
        assert shed.value(cls="standard", reason="capacity",
                          tenant="t1") == 1
        assert shed.value(cls="standard", reason="capacity",
                          tenant="default") == 1

    def test_no_collector_no_metrics(self):
        from repro import telemetry
        assert not telemetry.enabled()
        reg = SLORegistry()
        reg.record_queue_wait("standard", 1.0)      # must not raise
        reg.record_shed("standard", "capacity")
        assert reg.snapshot()["standard"]["shed"] == 1
