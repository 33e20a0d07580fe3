"""Same-plan requests of the hand-off window share one launch.

:meth:`BatchScheduler.run_job` fuses the committed ``mates`` it is
offered into the lead job's launch when each is one chunk of the same
plan, committed by the launch's start, with nothing to restore, and
the group fits one occupancy wave.  The front end offers the rest of
its hand-off and returns the fused outcomes one per
:meth:`ServeFrontend.dispatch_once` call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.gpusim.pool import make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.resilience.pipeline import _relative_residuals
from repro.serve import (FrontendConfig, HealthPolicy, ServeFrontend,
                         ServeRequest, SolveJob)
from repro.serve.job import FAULT_OUTCOMES, GPU_METHODS

from .conftest import make_sched

pytestmark = pytest.mark.serve


def job(jid, *, num=4, n=32, seed=None, **kw):
    seed = seed if seed is not None else sum(map(ord, jid))
    return SolveJob(jid, diagonally_dominant_fluid(num, n, seed=seed), **kw)


def launches(col) -> int:
    return int(sum(col.metrics.counter("model.reports").series.values()))


def run_pair(sched, lead, mates, **kw):
    """Commit ``lead`` and ``mates`` at 0 ms, then run ``lead`` offered
    with ``mates``; returns its report and the number of launches."""
    for j in (lead, *mates):
        sched.commit(j, not_before_ms=0.0)
    with telemetry.collect() as col:
        report = sched.run_job(lead, mates=mates, **kw)
    return report, launches(col)


class TestBitwise:
    @pytest.mark.parametrize("method", GPU_METHODS)
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_each_member_solves_as_its_solo_launch(self, method, n):
        a, b = (job(jid, n=n, method=method) for jid in ("a", "b"))
        solo = {j.job_id: make_sched(make_pool(2, seed=5)).run_job(j).x
                for j in (job("a", n=n, method=method),
                          job("b", n=n, method=method))}
        report, count = run_pair(make_sched(make_pool(2, seed=5)), a, [b])
        assert count == 1
        assert [r.job_id for r in report.mates] == ["b"]
        for r in (report, *report.mates):
            assert r.ok and r.x.tobytes() == solo[r.job_id].tobytes()
            assert r.chunks[0].digest == r.solution_digest()


class TestWhatFuses:
    def test_same_plan_pair_costs_one_launch(self):
        sched = make_sched(make_pool(2, seed=5))
        report, count = run_pair(sched, job("a"), [job("b")])
        assert count == 1 and len(report.mates) == 1
        mate = report.mates[0]
        assert mate.chunks[0].device == report.chunks[0].device
        assert mate.chunks[0].end_ms == report.chunks[0].end_ms
        assert mate.makespan_ms == report.makespan_ms

    @pytest.mark.parametrize("mate_kw", [
        {"n": 64},
        {"method": "pcr"},
        {"residual_tol": 1e-6},
        {"cpu_chain": ("gep",)},
        {"chunk_size": 2},                       # two chunks
    ], ids=["n", "method", "residual_tol", "cpu_chain", "multi_chunk"])
    def test_different_plans_and_multi_chunk_mates_never_fuse(self, mate_kw):
        sched = make_sched(make_pool(2, seed=5))
        report, count = run_pair(sched, job("a"), [job("b", **mate_kw)])
        assert count == 1 and report.mates == []

    def test_multi_chunk_lead_never_fuses(self):
        sched = make_sched(make_pool(2, seed=5))
        report, count = run_pair(sched, job("a", chunk_size=2), [job("b")])
        assert count == 2 and report.mates == []

    def test_layouts_never_fuse(self):
        sched = make_sched(make_pool(2, seed=5))
        report, _ = run_pair(
            sched, job("a", method="thomas"),
            [job("b", method="thomas", layout="interleaved")])
        assert report.mates == []

    def test_pair_over_one_wave_never_fuses(self):
        sched = make_sched(make_pool(2, seed=5))
        wave = sched._wave(job("probe"), 1)
        half = wave // 2 + 1
        report, count = run_pair(sched, job("a", num=half),
                                 [job("b", num=half)])
        assert count == 1 and report.mates == []
        fits, count = run_pair(make_sched(make_pool(2, seed=5)),
                               job("a", num=half), [job("b", num=wave - half)])
        assert count == 1 and len(fits.mates) == 1

    def test_mate_arriving_after_the_launch_starts_never_fuses(self):
        sched = make_sched(make_pool(2, seed=5))
        a, b = job("a"), job("b")
        sched.commit(a, not_before_ms=0.0)
        sched.commit(b, not_before_ms=1.0)
        report = sched.run_job(a, mates=[b])
        assert report.mates == []


class TestFrontend:
    def cfg(self, cap=24):
        return FrontendConfig(pending_capacity=cap, admission_slack=1e9)

    def req(self, rid, cls="standard", **kw):
        return ServeRequest(rid, "acme", diagonally_dominant_fluid(
            4, 32, seed=11), slo_class=cls, **kw)

    def test_one_outcome_per_call_in_pick_order(self):
        fe = ServeFrontend(make_sched(make_pool(2, seed=5)),
                           config=self.cfg())
        for rid, cls in (("b0", "batch"), ("s0", "standard"),
                         ("i0", "interactive")):
            fe.offer(self.req(rid, cls))
        with telemetry.collect() as col:
            order = []
            while (out := fe.dispatch_once()) is not None:
                order.append(out.request_id)
        assert order == ["i0", "s0", "b0"]
        assert launches(col) == 2
        assert [o.request_id for o in fe.report().outcomes] == order
        i0, s0 = fe.outcomes["i0"], fe.outcomes["s0"]
        assert s0.finish_ms == i0.finish_ms
        assert s0.report.chunks[0].end_ms == i0.report.chunks[0].end_ms

    def test_waiting_mate_holds_no_capacity_or_backlog(self):
        fe = ServeFrontend(make_sched(make_pool(2, seed=5)),
                           config=self.cfg(cap=2))
        fe.offer(self.req("r0"))
        fe.offer(self.req("r1"))
        assert fe.dispatch_once().request_id == "r0"
        assert fe.pending == 0
        assert fe._backlog_ms("batch") == 0.0
        # The full capacity is free for new arrivals: nothing sheds.
        assert fe.offer(self.req("r2")) is None
        assert fe.offer(self.req("r3")) is None
        assert not fe.report().shed
        assert fe.dispatch_once().request_id == "r1"

    def test_run_serves_the_mates_it_fused(self):
        fe = ServeFrontend(make_sched(make_pool(2, seed=5)),
                           config=self.cfg())
        rep = fe.run([self.req(f"r{i}") for i in range(5)])
        assert [o.request_id for o in rep.outcomes] == [
            f"r{i}" for i in range(5)]
        assert all(o.state == "completed" and o.report.ok
                   for o in rep.outcomes)
        assert fe.pending == 0 and not fe._fused


class TestHotDevice:
    def test_fused_launch_completes_or_degrades_every_member(self):
        statuses, outcomes = set(), set()
        for seed in range(6):
            pool = make_pool(2, seed=seed, hot=0, hot_rates={
                "launch_fatal_rate": 0.5,
                "global_bitflip_rate": 0.5, "ecc_detect_rate": 0.0})
            sched = make_sched(pool, seed=seed, health_policy=HealthPolicy(
                failure_threshold=2))
            a, b = job("a", seed=seed), job("b", seed=seed + 100)
            report, _ = run_pair(sched, a, [b])
            assert len(report.mates) == 1
            attempts = report.chunks[0].attempts
            for r, j in zip((report, *report.mates), (a, b)):
                assert r.ok and r.outcome == "ok"
                (chunk,) = r.chunks
                assert chunk.status in ("ok", "degraded")
                assert chunk.attempts == attempts
                rel = _relative_residuals(j.systems, r.x)
                assert np.all(rel <= j.residual_tol)
                statuses.add(chunk.status)
            outcomes |= {a.outcome for a in attempts}
        assert outcomes <= FAULT_OUTCOMES | {"ok", "residual"}
        # The seeds reach both the GPU and the CPU path, with faults.
        assert statuses == {"ok", "degraded"}
        assert outcomes & FAULT_OUTCOMES


    def test_a_member_fails_only_on_its_own_rows(self):
        # A singular system in the lead: no solver vouches for it, so the
        # lead fails, while the mate's rows kept their GPU result.
        a, b = job("a"), job("b")
        a.systems.a[1] = a.systems.b[1] = a.systems.c[1] = 0.0
        report, count = run_pair(make_sched(make_pool(2, seed=5)), a, [b])
        assert count == 1 and len(report.mates) == 1
        mate = report.mates[0]
        assert report.chunks[0].status == "failed" and not report.ok
        assert mate.chunks[0].status == "degraded" and mate.ok
        assert mate.chunks[0].attempts == report.chunks[0].attempts


class TestCheckpoint:
    def test_restored_lead_is_never_relaunched_or_fused(self, tmp_path):
        ckpt = str(tmp_path)
        first = make_sched(make_pool(2, seed=5), checkpoint_dir=ckpt)
        done, count = run_pair(first, job("a"), [job("b")])
        assert count == 1 and len(done.mates) == 1

        again = make_sched(make_pool(2, seed=5), checkpoint_dir=ckpt)
        a, b = job("a"), job("b")
        report, count = run_pair(again, a, [b], resume=True)
        assert count == 0 and report.mates == []
        assert report.restored_chunks == [0]
        assert report.solution_digest() == done.solution_digest()
        with telemetry.collect() as col:
            mate = again.run_job(b, resume=True)
        assert launches(col) == 0 and mate.restored_chunks == [0]
        assert mate.solution_digest() == done.mates[0].solution_digest()

    def test_restored_lead_takes_no_mates(self, tmp_path):
        ckpt = str(tmp_path)
        make_sched(make_pool(2, seed=5), checkpoint_dir=ckpt).run_job(
            job("a"))
        sched = make_sched(make_pool(2, seed=5), checkpoint_dir=ckpt)
        a, b = job("a"), job("b")
        report, count = run_pair(sched, a, [b], resume=True)
        assert count == 0 and report.mates == []
        assert report.restored_chunks == [0]
        with telemetry.collect() as col:
            mate = sched.run_job(b, resume=True)
        assert launches(col) == 1 and mate.ok and mate.restored_chunks == []

    def test_restored_mate_is_never_relaunched_or_fused(self, tmp_path):
        ckpt = str(tmp_path)
        make_sched(make_pool(2, seed=5), checkpoint_dir=ckpt).run_job(
            job("b"))
        sched = make_sched(make_pool(2, seed=5), checkpoint_dir=ckpt)
        a, b = job("a"), job("b")
        report, count = run_pair(sched, a, [b], resume=True)
        assert count == 1 and report.mates == []
        assert report.restored_chunks == []
        with telemetry.collect() as col:
            mate = sched.run_job(b, resume=True)
        assert launches(col) == 0 and mate.restored_chunks == [0]


class TestTrace:
    def test_spans_name_the_launch_and_its_members(self):
        sched = make_sched(make_pool(2, seed=5))
        a, b = job("a"), job("b")
        for j in (a, b):
            sched.commit(j, not_before_ms=0.0)
        with telemetry.collect() as col:
            report = sched.run_job(a, mates=[b])
        (attempt,) = [s for s in col.spans if s.name == "serve.attempt"]
        assert attempt.attrs["jobs"] == ["a", "b"]
        assert attempt.trace_id == report.trace_id
        jobs = {s.attrs["job"]: s for s in col.spans if s.name == "serve.job"}
        assert {j: s.attrs["launch_systems"] for j, s in jobs.items()} == {
            "a": 8, "b": 8}
        assert jobs["b"].trace_id == report.mates[0].trace_id
