"""Scheduler behaviour on healthy and faulty pools (non-chaos paths:
sharding, placement, correctness, degradation, deadlines)."""

import numpy as np
import pytest

from repro import telemetry
from repro.gpusim.pool import make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.resilience.pipeline import _relative_residuals
from repro.serve import OPEN, HealthPolicy, ServeFrontend, ServeRequest

from .conftest import make_job, make_sched


def residual_ok(systems, x, tol=1e-4):
    return bool(np.all(_relative_residuals(systems, x) <= tol))


class TestHealthyPool:
    def test_solves_and_shards(self, batch, healthy_pool):
        sched = make_sched(healthy_pool)
        report = sched.run_job(make_job(batch))
        assert report.ok and report.outcome == "ok"
        assert report.num_chunks == 6
        assert all(c.status == "ok" for c in report.chunks)
        assert report.total_retries == 0
        assert residual_ok(batch, report.x)

    def test_work_spreads_across_the_pool(self, batch, healthy_pool):
        sched = make_sched(healthy_pool)
        report = sched.run_job(make_job(batch))
        used = report.devices_used()
        assert set(used) == {"gpu0", "gpu1", "gpu2"}
        assert used == {"gpu0": 2, "gpu1": 2, "gpu2": 2}

    def test_uneven_tail_chunk(self, healthy_pool):
        batch = diagonally_dominant_fluid(10, 32, seed=2)
        sched = make_sched(healthy_pool)
        report = sched.run_job(make_job(batch, chunk_size=4))
        assert report.num_chunks == 3
        assert report.ok
        assert residual_ok(batch, report.x)

    def test_matches_direct_solve(self, batch, healthy_pool):
        from repro.kernels.api import run_kernel
        sched = make_sched(healthy_pool)
        report = sched.run_job(make_job(batch, method="pcr"))
        direct, _ = run_kernel("pcr", batch)
        assert np.array_equal(report.x,
                              np.asarray(direct, dtype=np.float64))

    def test_queue_drain_fifo(self, healthy_pool):
        # One tenant, one class: the front end drains in offer order
        # (job10 after job2, not in request-id order).
        fe = ServeFrontend(make_sched(healthy_pool))
        names = [f"job{i}" for i in range(12)]
        for name in names:
            fe.offer(ServeRequest(name, "default",
                                  diagonally_dominant_fluid(8, 32, seed=4)))
        reports = []
        while (out := fe.dispatch_once()) is not None:
            reports.append(out.report)
        assert [r.job_id for r in reports] == names
        assert all(r.ok for r in reports)


class TestFaultyPool:
    def test_reroutes_off_the_hot_device(self, batch, hot_pool):
        sched = make_sched(hot_pool,
                           health_policy=HealthPolicy(failure_threshold=2))
        report = sched.run_job(make_job(batch))
        assert report.ok
        used = report.devices_used()
        assert used.get("gpu1", 0) == 0       # every launch there dies
        assert used.get("gpu0", 0) + used.get("gpu2", 0) == 6
        assert report.total_retries >= 2      # the failed gpu1 attempts
        assert residual_ok(batch, report.x)

    def test_hot_device_breaker_opens(self, batch, hot_pool):
        with telemetry.collect() as col:
            sched = make_sched(hot_pool, health_policy=HealthPolicy(
                failure_threshold=2, cooldown_ms=1e9))
            report = sched.run_job(make_job(batch))
        assert report.ok
        assert sched.health.devices["gpu1"].circuit == OPEN
        reasons = [e.attrs["reason"] for e in col.events
                   if e.name == "serve.breaker"]
        assert reasons == ["trip"]

    def test_degrades_when_every_device_is_hot(self, batch):
        pool = make_pool(2, seed=5, hot=0,
                         hot_rates={"launch_fatal_rate": 1.0})
        for dev in pool:
            dev.fault_rates = {"launch_fatal_rate": 1.0}
        sched = make_sched(pool, health_policy=HealthPolicy(
            failure_threshold=1, cooldown_ms=1e9))
        report = sched.run_job(make_job(batch))
        assert report.outcome == "ok"          # degraded, not failed
        assert all(c.status == "degraded" for c in report.chunks)
        assert report.devices_used() == {"cpu": 6}
        assert residual_ok(batch, report.x)

    def test_chunk_timeout_counts_as_device_failure(self, batch,
                                                    healthy_pool):
        sched = make_sched(healthy_pool, chunk_timeout_ms=1e-9,
                           health_policy=HealthPolicy(
                               failure_threshold=1, cooldown_ms=1e9))
        report = sched.run_job(make_job(batch))
        # Every GPU attempt "hangs"; all circuits open; CPU finishes.
        assert all(h.circuit == OPEN for h in sched.health.devices.values())
        assert all(c.status == "degraded" for c in report.chunks)
        assert all(a.outcome == "timeout"
                   for c in report.chunks for a in c.attempts)
        assert residual_ok(batch, report.x)


class TestDeadlines:
    def test_generous_deadline_met(self, batch, healthy_pool):
        sched = make_sched(healthy_pool)
        report = sched.run_job(make_job(batch, deadline_ms=1e6))
        assert report.ok and report.deadline_met

    def test_blown_deadline_stops_the_job(self, batch, healthy_pool):
        sched = make_sched(healthy_pool)
        report = sched.run_job(make_job(batch, deadline_ms=1e-6))
        assert report.outcome == "deadline"
        assert not report.deadline_met and not report.completed
        assert not report.ok
        assert report.num_chunks < 6          # stopped early

    def test_makespan_is_modeled_time(self, batch, healthy_pool):
        sched = make_sched(healthy_pool)
        report = sched.run_job(make_job(batch))
        assert report.makespan_ms > 0
        assert report.makespan_ms == pytest.approx(
            max(c.end_ms for c in report.chunks))


class TestEstimator:
    def test_estimate_positive_and_scales(self, batch, healthy_pool):
        sched = make_sched(healthy_pool)
        small = sched.estimate_job_ms(make_job(batch))
        big = sched.estimate_job_ms(make_job(
            diagonally_dominant_fluid(96, 64, seed=11)))
        assert 0 < small < big
