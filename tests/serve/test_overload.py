"""Overload acceptance suite (ISSUE 8).

At ``overload_profiles(3.0)`` (three times the admission capacity of
4-system chunks; the fused one-wave launches serve the 2x mix without
shedding) the front end must:

* keep interactive p99 within the class objective,
* shed exclusively by class -- batch before standard, never
  interactive,
* be bitwise reproducible: two same-seed runs produce identical shed
  sets, identical JobReports and identical telemetry JSONL,
* never re-admit a shed request across kill/resume,
* decide every request exactly once, through one bounded commit
  window, at any load and pool size.

Run with ``pytest -m overload`` (CI runs it twice for determinism).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.gpusim.pool import make_pool
from repro.serve import FrontendConfig, ServeFrontend, loadgen
from repro.serve.frontend import HANDOFF_DEPTH

from .conftest import make_sched

pytestmark = [pytest.mark.serve, pytest.mark.overload]

SEED = 42
HORIZON_MS = 3.0
LOAD = 2.0
#: A load the pool cannot keep up with: the acceptance runs shed.
SHEDDING_LOAD = 3.0


def overload_requests(seed=SEED, horizon_ms=HORIZON_MS, load=LOAD):
    return loadgen.generate(
        loadgen.overload_profiles(load, scenario="mixed", tenants=3),
        horizon_ms=horizon_ms, seed=seed)


def run_overload(seed=SEED, *, checkpoint_dir=None, resume=False,
                 stop_after_jobs=None, horizon_ms=HORIZON_MS, load=LOAD):
    """One full overload run under the deterministic collector."""
    col = telemetry.deterministic_collector(seed)
    with telemetry.collect(col):
        sched = make_sched(make_pool(2, seed=5), seed=seed,
                           checkpoint_dir=checkpoint_dir)
        fe = ServeFrontend(sched, config=FrontendConfig(), resume=resume)
        rep = fe.run(overload_requests(seed, horizon_ms, load),
                     stop_after_jobs=stop_after_jobs)
        fe.close()
    return rep, col


class TestOverloadAcceptance:
    @pytest.fixture(scope="class")
    def run(self):
        return run_overload(load=SHEDDING_LOAD)

    def test_sustained_overload_actually_sheds(self, run):
        rep, _ = run
        assert len(rep.outcomes) > 100
        assert len(rep.shed) > 10
        assert rep.completed, "service must keep doing useful work"

    def test_shedding_is_strictly_by_class(self, run):
        rep, _ = run
        by_class = rep.shed_by_class()
        assert set(by_class) <= {"batch", "standard"}
        assert by_class.get("batch", 0) > 0
        assert "interactive" not in by_class

    def test_interactive_p99_within_objective(self, run):
        rep, _ = run
        lat = rep.latency_report()["interactive"]
        assert lat["count"] > 0
        assert lat["p99"] is not None
        assert lat["p99"] <= lat["objective_p99_ms"]

    def test_goodput_dominates_under_overload(self, run):
        rep, _ = run
        assert len(rep.completed) > len(rep.shed)
        assert all(o.report.ok for o in rep.completed)

    def test_shed_outcomes_fully_attributed(self, run):
        rep, _ = run
        for o in rep.shed:
            assert o.reason in ("overload", "quota",
                                "deadline_unmeetable", "deadline",
                                "capacity")
            assert o.stage in ("quota", "admission", "capacity",
                               "resume")
            assert o.tenant.startswith("tenant")


class TestOverloadDeterminism:
    def test_same_seed_runs_bitwise_identical(self):
        rep_a, col_a = run_overload()
        rep_b, col_b = run_overload()
        # Identical shed sets...
        assert rep_a.shed_set() == rep_b.shed_set()
        # ...identical JobReports (digests included)...
        assert [o.report.to_dict() for o in rep_a.completed] == \
            [o.report.to_dict() for o in rep_b.completed]
        # ...and bitwise-identical telemetry.
        assert telemetry.to_jsonl(col_a) == telemetry.to_jsonl(col_b)
        assert telemetry.prometheus_text(col_a) == \
            telemetry.prometheus_text(col_b)

    def test_different_seeds_differ(self):
        rep_a, _ = run_overload(seed=42, load=SHEDDING_LOAD)
        rep_b, _ = run_overload(seed=43, load=SHEDDING_LOAD)
        assert rep_a.shed_set() != rep_b.shed_set()


class TestOverloadResume:
    #: Fused one-wave launches serve the 3x mix without shedding in
    #: its first 60 jobs; at 4x the kill lands after sheds were
    #: recorded.
    LOAD = 4.0

    def test_shed_requests_never_readmitted(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        partial, _ = run_overload(checkpoint_dir=ckpt,
                                  stop_after_jobs=60, load=self.LOAD)
        shed_before = {rid for rid, _, _ in partial.shed_set()}
        assert shed_before, "partial run must have shed something"

        resumed, _ = run_overload(checkpoint_dir=ckpt, resume=True,
                                  load=self.LOAD)
        # Every request shed before the kill stays shed -- replayed
        # from the ledger, attributed to the resume stage.
        replayed = {o.request_id: o for o in resumed.shed}
        for rid in shed_before:
            assert rid in replayed
            assert replayed[rid].stage == "resume"
        completed_ids = {o.request_id for o in resumed.completed}
        assert not (shed_before & completed_ids)

    def test_resume_completions_match_straight_run(self, tmp_path):
        straight, _ = run_overload(load=self.LOAD)
        ckpt = str(tmp_path / "ckpt")
        run_overload(checkpoint_dir=ckpt, stop_after_jobs=60,
                     load=self.LOAD)
        resumed, _ = run_overload(checkpoint_dir=ckpt, resume=True,
                                  load=self.LOAD)
        digest = {o.request_id: o.report.solution_digest()
                  for o in straight.completed}
        for o in resumed.completed:
            if o.request_id in digest:
                assert o.report.solution_digest() == digest[o.request_id]


class TestExactlyOnce:
    """Every request ends in exactly one outcome, whatever the load."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16),
           load=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
           devices=st.sampled_from([1, 2, 3]))
    def test_each_request_decided_once(self, seed, load, devices):
        requests = overload_requests(seed, horizon_ms=1.0, load=load)
        fe = ServeFrontend(make_sched(make_pool(devices, seed=seed),
                                      seed=seed))
        cap = fe.config.pending_capacity
        offer, fill, dispatch = fe.offer, fe._fill_handoff, fe.dispatch_once
        last_ms = [fe.now_ms]

        def monotone_clock():
            # One modeled clock: it never runs backwards.
            assert fe.now_ms >= last_ms[0]
            last_ms[0] = fe.now_ms

        def checked_offer(request):
            monotone_clock()
            out = offer(request)
            assert fe.pending <= cap
            return out

        def checked_fill():
            fill()
            assert len(fe._handoff) <= HANDOFF_DEPTH

        def checked_dispatch():
            out = dispatch()
            monotone_clock()
            return out

        fe.offer, fe._fill_handoff = checked_offer, checked_fill
        fe.dispatch_once = checked_dispatch
        rep = fe.run(requests)

        ids = [o.request_id for o in rep.outcomes]
        assert sorted(ids) == sorted(r.request_id for r in requests)
        assert {o.state for o in rep.outcomes} <= {"completed", "shed"}
        assert {o.stage for o in rep.shed} <= {"quota", "admission",
                                               "capacity"}
        assert fe.pending == 0
        # Nothing, completed or shed, is decided before it arrives.
        assert all(o.finish_ms >= o.arrival_ms for o in rep.outcomes)
