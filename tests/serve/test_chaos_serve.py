"""Serving-layer chaos acceptance suite.

The three contracts ISSUE.md pins down, each under seeded fault
injection:

1. a breaker tripped mid-job still lets the job complete within its
   deadline (rerouting to healthy devices, CPU degradation as the
   last resort);
2. a run killed mid-job and resumed from its checkpoint produces a
   solution bitwise identical to the uninterrupted run;
3. two identical seeded runs produce identical reports and metric
   counters.

Everything here is modeled time over derived seeds, so this suite is
run twice in CI (and by ``make serve-chaos``) as a determinism proof.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.gpusim.pool import make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.resilience.pipeline import _relative_residuals
from repro.serve import CLOSED, HALF_OPEN, OPEN, HealthPolicy
from repro.telemetry.metrics import COST_RESIDUAL

from .conftest import make_job, make_sched

pytestmark = [pytest.mark.serve, pytest.mark.chaos]


def hot_pool():
    return make_pool(3, seed=5, hot=1,
                     hot_rates={"launch_fatal_rate": 1.0})


def batch():
    return diagonally_dominant_fluid(24, 64, seed=11)


#: Circuits open on the second consecutive failure.
FAST_TRIP = HealthPolicy(failure_threshold=2)


class TestBreakerTripMidJob:
    """Acceptance 1: trip a breaker mid-job, still meet the deadline."""

    def run_once(self):
        sched = make_sched(hot_pool(), health_policy=HealthPolicy(
            failure_threshold=2, cooldown_ms=1e9))
        report = sched.run_job(make_job(batch(), deadline_ms=500.0))
        return sched, report

    def test_breaker_trips_and_job_completes_in_deadline(self):
        sched, report = self.run_once()
        assert sched.health.devices["gpu1"].circuit == OPEN  # tripped...
        assert report.completed and report.deadline_met   # ...job fine
        assert report.outcome == "ok"
        assert report.makespan_ms <= 500.0

    def test_rerouted_chunks_land_on_healthy_devices(self):
        _, report = self.run_once()
        used = report.devices_used()
        assert used.get("gpu1", 0) == 0
        assert sum(used.values()) == report.num_chunks == 6
        assert report.total_retries >= 2   # gpu1's failed attempts
        rel = _relative_residuals(batch(), report.x)
        assert bool(np.all(rel <= 1e-4))

    def test_half_open_recovery_after_cooldown(self):
        """With a finite cooldown the tripped device is probed again
        and, now healthy (failures were injected per-attempt), the
        breaker closes: the full closed->open->half_open->closed cycle
        under scheduler control."""
        pool = make_pool(3, seed=5, hot=1,
                         hot_rates={"launch_fatal_rate": 1.0})
        # threshold 1: the breaker trips on gpu1's first failed attempt,
        # however the seeded backoff jitter orders the device clocks.
        with telemetry.collect() as col:
            sched = make_sched(pool, health_policy=HealthPolicy(
                failure_threshold=1, cooldown_ms=0.02))
            sched.run_job(make_job(batch(), job_id="warm"))
            h = sched.health.devices["gpu1"]
            assert h.circuit == OPEN
            # Heal the device, then keep feeding jobs through the same
            # scheduler: once the modeled clock clears the cooldown, a
            # probe flows and the circuit closes.
            pool.by_name("gpu1").fault_rates = {}
            report = None
            for i in range(5):
                report = sched.run_job(make_job(batch(),
                                                job_id=f"after{i}"))
                assert report.ok
                if h.circuit == CLOSED:
                    break
        assert h.circuit == CLOSED
        trans = [(e.attrs["to"], e.attrs["reason"]) for e in col.events
                 if e.name == "serve.breaker" and e.attrs["device"] == "gpu1"]
        assert trans[0] == (OPEN, "trip")
        assert (HALF_OPEN, "cooldown") in trans
        assert trans[-1] == (CLOSED, "probe_ok")
        assert report.devices_used().get("gpu1", 0) > 0


class TestKillResumeBitwise:
    """Acceptance 2: kill + resume == uninterrupted, bitwise."""

    def test_resumed_run_is_bitwise_identical(self, tmp_path):
        job_kw = dict(job_id="kr", deadline_ms=500.0)

        straight = make_sched(hot_pool(), health_policy=FAST_TRIP,
                              checkpoint_dir=str(tmp_path / "a"))
        full = straight.run_job(make_job(batch(), **job_kw))
        assert full.ok

        killed = make_sched(hot_pool(), health_policy=FAST_TRIP,
                            checkpoint_dir=str(tmp_path / "b"))
        partial = killed.run_job(make_job(batch(), **job_kw),
                                 stop_after=3)
        assert partial.outcome == "stopped"
        assert not partial.completed

        resumed_sched = make_sched(hot_pool(), health_policy=FAST_TRIP,
                                   checkpoint_dir=str(tmp_path / "b"))
        resumed = resumed_sched.run_job(make_job(batch(), **job_kw),
                                        resume=True)
        assert resumed.ok
        # checkpoint_every=2 and stop_after=3: chunks 0-1 hit a
        # barrier, chunk 2's buffered line died with the "process".
        assert resumed.restored_chunks == [0, 1]
        assert np.array_equal(resumed.x, full.x)
        assert resumed.solution_digest() == full.solution_digest()
        # Scheduling context was restored too, not just results: the
        # recomputed suffix used the same devices as the straight run.
        assert {c.chunk_id: c.device for c in full.chunks} == \
            {c.chunk_id: c.device for c in resumed.chunks}

    def test_resume_without_checkpoint_recomputes_everything(
            self, tmp_path):
        sched = make_sched(hot_pool(), health_policy=FAST_TRIP,
                           checkpoint_dir=str(tmp_path))
        report = sched.run_job(make_job(batch(), job_id="cold"),
                               resume=True)
        assert report.ok and report.restored_chunks == []


class TestSeededDeterminism:
    """Acceptance 3: identical seeds -> identical reports + counters."""

    def run_once(self):
        with telemetry.collect() as col:
            sched = make_sched(hot_pool(), health_policy=FAST_TRIP)
            job = make_job(batch(), job_id="det", deadline_ms=500.0)
            sched.commit(job)
            reports = [sched.run_job(job)]
        return reports, col.metrics.snapshot()

    def test_reports_and_counters_identical(self):
        reports_a, snap_a = self.run_once()
        reports_b, snap_b = self.run_once()
        assert [r.to_dict() for r in reports_a] == \
            [r.to_dict() for r in reports_b]
        assert snap_a["counters"] == snap_b["counters"]
        assert snap_a["gauges"] == snap_b["gauges"]

    def test_fault_plans_are_coordinate_pure(self):
        """Same (device, job, chunk, attempt) -> same plan, regardless
        of call order."""
        d1 = hot_pool().by_name("gpu1")
        d2 = hot_pool().by_name("gpu1")
        p_fwd = [d1.plan_for("det", c, 0).seed for c in range(6)]
        p_rev = [d2.plan_for("det", c, 0).seed
                 for c in reversed(range(6))]
        assert p_fwd == list(reversed(p_rev))
        assert len(set(p_fwd)) == 6          # and they decorrelate


class TestTraceObservability:
    """ISSUE 6 acceptance: one connected trace tree per job, with
    bitwise-identical exports across two same-seed runs."""

    def run_traced(self, seed=17):
        col = telemetry.deterministic_collector(seed)
        with telemetry.collect(col):
            sched = make_sched(hot_pool(), health_policy=FAST_TRIP, seed=seed)
            jobs = [make_job(batch(), job_id=f"t{i}", deadline_ms=500.0)
                    for i in range(2)]
            for job in jobs:
                sched.commit(job)
            reports = [sched.run_job(job) for job in jobs]
        return col, sched, reports

    def test_every_job_is_one_connected_tree(self):
        col, sched, reports = self.run_traced()
        trees = telemetry.trace_trees(col)
        assert len(reports) == 2
        for report in reports:
            assert report.trace_id is not None
            tree = trees[report.trace_id]
            assert tree["connected"], report.trace_id
            assert tree["root"].name == "serve.trace"

    def test_tree_spans_scheduler_to_launch(self):
        col, _sched, reports = self.run_traced()
        trees = telemetry.trace_trees(col)
        for report in reports:
            names = {s.name for s in trees[report.trace_id]["spans"]}
            # Scheduler layer down into the simulated device layer.
            assert {"serve.trace", "serve.admit", "serve.job",
                    "serve.chunk", "serve.attempt"} <= names
            assert any(n.startswith("sim.launch:") for n in names)
            assert not any(n.startswith("sim.phase:") for n in names)

    def test_trace_ids_are_deterministic_functions_of_seed(self):
        _, sched_a, reports_a = self.run_traced(seed=17)
        _, sched_b, reports_b = self.run_traced(seed=17)
        assert [r.trace_id for r in reports_a] == \
            [r.trace_id for r in reports_b]
        assert sched_a.trace_id_for("t0") == reports_a[0].trace_id
        # Distinct jobs get distinct traces.
        assert len({r.trace_id for r in reports_a}) == 2

    def test_trace_ids_derived_ahead_equal_scalar_ones(self):
        job_ids = [f"tenant{i % 3}-{i:05d}" for i in range(300)] + ["", "é"]
        for seed in (0, 17, 2**40 + 3):
            scalar = make_sched(make_pool(2), seed=seed)
            ahead = make_sched(make_pool(2), seed=seed)
            ahead.derive_trace_ids(job_ids)
            assert ([ahead.trace_id_for(j) for j in job_ids]
                    == [scalar.trace_id_for(j) for j in job_ids])

    def test_jsonl_export_bitwise_identical(self):
        col_a, _, _ = self.run_traced(seed=17)
        col_b, _, _ = self.run_traced(seed=17)
        assert telemetry.to_jsonl(col_a) == telemetry.to_jsonl(col_b)

    def test_slo_report_identical_across_runs(self):
        _, sched_a, _ = self.run_traced(seed=17)
        _, sched_b, _ = self.run_traced(seed=17)
        assert sched_a.slo.report() == sched_b.slo.report()
        assert sched_a.slo.snapshot() == sched_b.slo.snapshot()

    def test_prometheus_exposition_identical_across_runs(self):
        col_a, _, _ = self.run_traced(seed=17)
        col_b, _, _ = self.run_traced(seed=17)
        text = telemetry.prometheus_text(col_a)
        assert text == telemetry.prometheus_text(col_b)
        assert "repro_serve_latency_ms_bucket" in text

    def test_estimator_residuals_recorded_per_chunk(self):
        col, _, reports = self.run_traced()
        hist = col.metrics.histogram(COST_RESIDUAL)
        total_chunks = sum(r.num_chunks for r in reports)
        assert hist.count(solver="cr_pcr", layout="global", n=64) == \
            total_chunks

    def test_slo_attribution_sees_breaker_trip(self):
        _, sched, _ = self.run_traced()
        snap = sched.slo.snapshot()["standard"]
        assert snap["breaker_trips"].get("gpu1", 0) >= 1
        assert snap["jobs"] == 2
