"""Units for the multi-tenant serve front end (admission pipeline,
quotas, downgrade, eviction order, asyncio facade)."""

from __future__ import annotations

import asyncio

import pytest

from repro.gpusim.pool import make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.serve import (BatchScheduler, FrontendConfig, HealthPolicy,
                         ServeFrontend, ServeRequest, TenantSpec)
from repro.serve.frontend import AsyncServeFrontend

from .conftest import make_sched

pytestmark = pytest.mark.serve


def small_batch(seed=11, num=4, n=32):
    return diagonally_dominant_fluid(num, n, seed=seed)


def req(rid, *, tenant="acme", cls="standard", at=0.0, seed=11,
        num=4, n=32, deadline=None):
    return ServeRequest(request_id=rid, tenant=tenant,
                        systems=small_batch(seed=seed, num=num, n=n),
                        arrival_ms=at, slo_class=cls,
                        deadline_ms=deadline)


def make_frontend(pool=None, *, tenants=None, config=None, sched_kw=None,
                  resume=False):
    sched = make_sched(pool or make_pool(2, seed=5), seed=0,
                       **(sched_kw or {}))
    return ServeFrontend(sched, tenants, config=config, resume=resume)


class TestPipeline:
    def test_single_request_completes(self):
        fe = make_frontend()
        assert fe.offer(req("r0")) is None
        out = fe.dispatch_once()
        assert out.state == "completed"
        assert out.report.ok
        assert out.latency_ms >= 0.0
        assert fe.dispatch_once() is None

    def test_unknown_tenant_auto_registers_unlimited(self):
        fe = make_frontend(tenants=[TenantSpec("acme")])
        assert fe.offer(req("r0", tenant="stranger")) is None
        assert fe.dispatch_once().state == "completed"

    def test_unknown_slo_class_does_not_crash(self):
        fe = make_frontend()
        fe.offer(req("r0", cls="bulk"))
        out = fe.dispatch_once()
        assert out is not None and out.slo_class == "bulk"

    def test_one_registry_attributes_breaker_trips(self):
        pool = make_pool(3, seed=7, hot=1,
                         hot_rates={"launch_fatal_rate": 1.0})
        fe = make_frontend(pool, sched_kw={
            "health_policy": HealthPolicy(failure_threshold=1)})
        # Two sizes: same-plan requests would share one launch, and the
        # second request is the one placed on gpu1.
        for i in range(2):
            fe.offer(req(f"r{i}", num=8, n=32 << i))
        while fe.dispatch_once() is not None:
            pass
        assert fe.slo is fe.scheduler.slo
        snap = fe.slo.snapshot()
        assert snap["standard"]["breaker_trips"] == {"gpu1": 1}
        assert snap["standard"]["jobs"] == 2
        assert fe.live_snapshot()["breaker_trips"] == 1
        assert "breaker standard: gpu1 tripped x1" in fe.slo.report()

    def test_report_preserves_decision_order(self):
        fe = make_frontend()
        for i in range(3):
            fe.offer(req(f"r{i}"))
        while fe.dispatch_once() is not None:
            pass
        rep = fe.report()
        assert [o.request_id for o in rep.outcomes] == ["r0", "r1", "r2"]
        assert rep.to_dict()["format"] == "repro.serve.frontend/v1"


class TestQuota:
    def test_zero_quota_tenant_admits_nothing(self):
        # Satellite: a tenant with zero quota is denied at the quota
        # stage every time, and never reaches the scheduler.
        fe = make_frontend(tenants=[
            TenantSpec("frozen", quota_rate=0.0, quota_burst=0.0),
            TenantSpec("acme"),
        ])
        for i in range(5):
            out = fe.offer(req(f"f{i}", tenant="frozen", at=float(i)))
            assert out is not None and out.state == "shed"
            assert out.reason == "quota" and out.stage == "quota"
        assert fe.offer(req("a0", tenant="acme", at=0.0)) is None
        rep_mid = fe.report()
        assert rep_mid.quota_denied == {"frozen": 5}
        assert fe.dispatch_once().state == "completed"

    def test_quota_denial_consumes_nothing(self):
        # One request's worth of burst (a one-chunk request costs about
        # 0.015 modeled ms): first admitted, second denied, and the
        # denial leaves the bucket able to refill normally.
        fe = make_frontend(tenants=[
            TenantSpec("t", quota_rate=0.001, quota_burst=0.02)])
        assert fe.offer(req("r0", tenant="t", at=0.0)) is None
        out = fe.offer(req("r1", tenant="t", at=0.0))
        assert out is not None and out.reason == "quota"
        # After enough refill time the tenant is admitted again.
        assert fe.offer(req("r2", tenant="t", at=100.0)) is None

    def test_eviction_refunds_victim_tokens(self):
        fe = make_frontend(
            tenants=[TenantSpec("t", quota_rate=0.001, quota_burst=0.05)],
            config=FrontendConfig(pending_capacity=1, admission_slack=1e9))
        assert fe.offer(req("r0", tenant="t", cls="batch")) is None
        before = fe._buckets["t"].tokens
        # r1 arrives last so it carries the latest virtual finish and
        # evicts itself; the eviction refunds its tokens, so the failed
        # admission costs the tenant net zero.
        out = fe.offer(req("r1", tenant="t", cls="batch"))
        assert out is not None and out.request_id == "r1"
        assert out.reason == "overload" and out.stage == "capacity"
        assert fe._buckets["t"].tokens == pytest.approx(before)


class TestAdmission:
    def test_impossible_deadline_is_shed_unmeetable(self):
        fe = make_frontend()
        out = fe.offer(req("r0", cls="interactive", deadline=1e-9))
        assert out is not None
        assert out.reason == "deadline_unmeetable"
        assert out.stage == "admission"

    def test_downgrade_before_shed(self):
        # Pre-load enough interactive backlog that the cost model
        # cannot meet the 5 ms objective, but batch still admits.
        fe = make_frontend(config=FrontendConfig(
            pending_capacity=500, admission_slack=1.0))
        for i in range(400):
            fe.offer(req(f"bg{i}", cls="interactive", num=16, n=64))
        before = fe.downgrades
        fe.offer(req("hot", cls="interactive", num=16, n=64))
        assert fe.downgrades > before
        rep = fe.report()
        assert rep.downgrades == fe.downgrades

    def test_no_downgrade_when_disallowed(self):
        fe = make_frontend(config=FrontendConfig(
            pending_capacity=500, admission_slack=1.0,
            allow_downgrade=False))
        for i in range(400):
            fe.offer(req(f"bg{i}", cls="interactive", num=16, n=64))
        out = fe.offer(req("hot", cls="interactive", num=16, n=64))
        assert out is not None and out.reason == "deadline_unmeetable"


class TestCapacityShedding:
    def cfg(self, cap):
        # Huge slack disables the admission stage so only the bounded
        # buffer sheds.
        return FrontendConfig(pending_capacity=cap, admission_slack=1e9)

    def test_overflow_sheds_lowest_class_latest_finish(self):
        fe = make_frontend(config=self.cfg(3))
        fe.offer(req("i0", cls="interactive"))
        fe.offer(req("s0", cls="standard"))
        fe.offer(req("b0", cls="batch"))
        out = fe.offer(req("i1", cls="interactive"))
        # Overflow evicts the batch request, not the new interactive.
        assert out is None
        shed = [o for o in fe.outcomes.values() if o.state == "shed"]
        assert [o.request_id for o in shed] == ["b0"]
        assert shed[0].reason == "overload"
        assert shed[0].stage == "capacity"

    def test_interactive_shed_only_when_alone(self):
        fe = make_frontend(config=self.cfg(2))
        fe.offer(req("i0", cls="interactive"))
        fe.offer(req("i1", cls="interactive"))
        out = fe.offer(req("i2", cls="interactive"))
        assert out is not None and out.request_id == "i2"
        assert out.reason == "overload"

    def test_committed_handoff_jobs_are_not_evictable(self):
        fe = make_frontend(config=self.cfg(2))
        fe.offer(req("b0", cls="batch"))
        fe._fill_handoff()             # b0 now committed to scheduler
        fe.offer(req("i0", cls="interactive"))
        fe.offer(req("i1", cls="interactive"))
        fe.offer(req("i2", cls="interactive"))
        shed = [o for o in fe.outcomes.values() if o.state == "shed"]
        # b0 is beyond the shedder's reach; interactive overflow sheds
        # interactive -- which is why HANDOFF_DEPTH stays small.
        assert all(o.slo_class == "interactive" for o in shed)
        assert "b0" not in {o.request_id for o in shed}


class TestDispatchOrder:
    def test_strict_priority_across_classes(self):
        fe = make_frontend(config=FrontendConfig(
            pending_capacity=24, admission_slack=1e9))
        fe.offer(req("b0", cls="batch"))
        fe.offer(req("s0", cls="standard"))
        fe.offer(req("i0", cls="interactive"))
        order = [fe.dispatch_once().request_id for _ in range(3)]
        assert order == ["i0", "s0", "b0"]

    def test_wfq_weights_within_class(self):
        fe = make_frontend(
            tenants=[TenantSpec("heavy", weight=2.0),
                     TenantSpec("light", weight=1.0)],
            config=FrontendConfig(pending_capacity=64, admission_slack=1e9))
        for i in range(6):
            fe.offer(req(f"h{i}", tenant="heavy"))
            fe.offer(req(f"l{i}", tenant="light"))
        first = [fe.dispatch_once().request_id[0] for _ in range(6)]
        assert first.count("h") == 4 and first.count("l") == 2


class TestSingleTenantSaturation:
    def test_one_tenant_cannot_monopolise_another(self):
        # Satellite: one tenant saturates the pool; a second tenant's
        # sparse interactive traffic still completes without shedding.
        fe = make_frontend(config=FrontendConfig(pending_capacity=8))
        requests = [req(f"hog-{i:03d}", tenant="hog", cls="batch",
                        at=0.0, num=16, n=64) for i in range(40)]
        requests += [req(f"vip-{i}", tenant="vip", cls="interactive",
                         at=float(i) * 0.05) for i in range(4)]
        rep = fe.run(sorted(requests,
                            key=lambda r: (r.arrival_ms, r.tenant,
                                           r.request_id)))
        vip = [o for o in rep.outcomes if o.tenant == "vip"]
        assert len(vip) == 4
        assert all(o.state == "completed" for o in vip)
        # All shedding lands on the saturating tenant's batch work.
        assert all(o.tenant == "hog" and o.slo_class == "batch"
                   for o in rep.shed)
        assert rep.shed, "hog overload should force shedding"


class TestAsyncFacade:
    def run_async(self, coro):
        return asyncio.run(coro)

    def test_submit_returns_completed_outcome(self):
        async def go():
            fe = make_frontend()
            async with AsyncServeFrontend(fe) as svc:
                out = await svc.submit(req("r0"))
            return out

        out = self.run_async(go())
        assert out.state == "completed" and out.report.ok

    def test_concurrent_submissions_all_resolve(self):
        async def go():
            fe = make_frontend(config=FrontendConfig(pending_capacity=4))
            async with AsyncServeFrontend(fe) as svc:
                outs = await asyncio.gather(
                    *(svc.submit(req(f"r{i}", cls="batch"))
                      for i in range(8)))
            return outs

        outs = self.run_async(go())
        assert len(outs) == 8
        states = {o.state for o in outs}
        assert "completed" in states
        # Overflowed requests come back as shed responses, never as
        # exceptions or hung futures.
        for o in outs:
            assert o.state in ("completed", "shed")

    def test_request_ahead_of_the_clock_waits_for_its_arrival(self):
        async def go():
            fe = make_frontend()
            async with AsyncServeFrontend(fe) as svc:
                out = await svc.submit(req("r0", at=7.5))
            return fe, out

        fe, out = self.run_async(go())
        assert out.state == "completed" and out.report.ok
        assert out.finish_ms >= out.arrival_ms == 7.5
        assert out.latency_ms == out.finish_ms - out.arrival_ms > 0.0
        assert fe.slo.snapshot()["standard"]["latency_ms"]["max"] \
            == out.latency_ms

    def test_async_path_matches_sync_decisions(self):
        def stream():
            return [req(f"r{i}", cls="batch") for i in range(6)]

        cfg = FrontendConfig(pending_capacity=3, admission_slack=1e9)

        fe_sync = make_frontend(config=cfg)
        for r in stream():
            fe_sync.offer(r)
        while fe_sync.dispatch_once() is not None:
            pass

        async def go():
            fe = make_frontend(config=cfg)
            async with AsyncServeFrontend(fe) as svc:
                outs = await asyncio.gather(
                    *(svc.submit(r) for r in stream()))
            return fe, outs

        fe_async, _ = self.run_async(go())
        assert fe_sync.report().shed_set() == fe_async.report().shed_set()
