"""Device health lifecycle suite: quarantine/readmission, warm spares,
hedged chunks, correlated-failure chaos.

The acceptance contracts:

1. a staged brownout on one device ends with that device quarantined,
   zero failed jobs, and tail latency within 2x the healthy-pool
   baseline;
2. the "brownout + flap + 1 warm spare" chaos scenario completes with
   zero failed jobs, the flapping device evicted and the spare
   promoted;
3. two same-seed runs are bitwise identical (reports, lifecycle
   transitions, telemetry JSONL) -- including across a kill/resume at
   mid-run.

Everything is modeled time over derived seeds; CI runs this file twice
(and ``make serve-health`` does the same) as a determinism proof.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.gpusim.device import GTX280
from repro.gpusim.faults import (BrownoutProcess, DegradationProcess,
                                 FlappingProcess, combine_rates,
                                 evaluate_processes)
from repro.gpusim.pool import DevicePool, PooledDevice, derive_seed, make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.serve import (ACTIVE, EVICTED, OPEN, PROBATION, QUARANTINED,
                         SPARE, SUSPECT, HealthMonitor, HealthPolicy)

from .conftest import make_job, make_sched

pytestmark = pytest.mark.health


def batch():
    return diagonally_dominant_fluid(24, 64, seed=11)


# ---------------------------------------------------------------------------
# Correlated fault processes


class TestFaultProcesses:
    def test_brownout_window_and_multiplier(self):
        p = BrownoutProcess(start_ms=1.0, duration_ms=2.0, multiplier=3.0)
        assert p.latency_multiplier_at(0.5) == 1.0
        assert p.latency_multiplier_at(1.0) == 3.0
        assert p.latency_multiplier_at(2.9) == 3.0
        assert p.latency_multiplier_at(3.0) == 1.0   # half-open window
        assert p.rates_at(1.5) == {}                 # slow, not faulty

    def test_flapping_is_deterministic_and_respects_duty(self):
        p = FlappingProcess(seed=42, period_ms=0.1, duty=0.5)
        downs = [p.down_at(w * 0.1) for w in range(50)]
        assert downs == [p.down_at(w * 0.1) for w in range(50)]
        assert any(downs) and not all(downs)
        assert all(FlappingProcess(seed=1, duty=1.0).down_at(t)
                   for t in (0.0, 1.0, 7.3))
        assert not any(FlappingProcess(seed=1, duty=0.0).down_at(t)
                       for t in (0.0, 1.0, 7.3))

    def test_flapping_rates_only_while_down(self):
        p = FlappingProcess(seed=0, period_ms=1.0, duty=0.5,
                            fault_rate=0.9)
        for w in range(20):
            t = w * 1.0
            if p.down_at(t):
                assert p.rates_at(t) == {"launch_fatal_rate": 0.9}
            else:
                assert p.rates_at(t) == {}

    def test_degradation_ramps_and_caps(self):
        p = DegradationProcess(start_ms=1.0, rate_per_ms=0.1, max_rate=0.5)
        assert p.rate_at(0.5) == 0.0
        assert p.rate_at(1.0) == 0.0
        assert p.rate_at(2.0) == pytest.approx(0.1)
        assert p.rate_at(100.0) == 0.5               # capped
        assert p.rates_at(0.5) == {}
        assert p.rates_at(3.0) == {"launch_fatal_rate": pytest.approx(0.2)}

    def test_evaluate_processes_combines_rates_and_multipliers(self):
        procs = (BrownoutProcess(multiplier=2.0),
                 FlappingProcess(seed=1, duty=1.0, fault_rate=0.5),
                 DegradationProcess(start_ms=0.0, rate_per_ms=1.0,
                                    max_rate=0.5))
        rates, mult = evaluate_processes(procs, 1.0)
        assert mult == 2.0
        # Independent processes combine as 1 - (1-r1)(1-r2).
        assert rates["launch_fatal_rate"] == \
            pytest.approx(combine_rates(0.5, 0.5))
        assert combine_rates(0.5, 0.5) == pytest.approx(0.75)
        assert combine_rates(1.0, 0.3) == 1.0

    def test_plan_carries_multiplier_but_seed_ignores_time(self):
        dev = PooledDevice("g", GTX280, seed=3, processes=(
            BrownoutProcess(start_ms=0.0, duration_ms=5.0,
                            multiplier=2.5),))
        early = dev.plan_for("job", 0, 0, at_ms=1.0)
        late = dev.plan_for("job", 0, 0, at_ms=4.0)
        assert early.latency_multiplier == 2.5
        assert early.seed == late.seed      # at_ms never feeds the seed
        assert dev.plan_for("job", 0, 0, at_ms=9.0) is None  # window over

    def test_flapping_device_plans_fault_only_while_down(self):
        flap = FlappingProcess(seed=7, period_ms=1.0, duty=0.5,
                               fault_rate=1.0)
        dev = PooledDevice("g", GTX280, seed=3, processes=(flap,))
        for w in range(10):
            t = w * 1.0
            plan = dev.plan_for("job", w, 0, at_ms=t)
            if flap.down_at(t):
                assert plan is not None and plan.launch_fatal_rate == 1.0
            else:
                assert plan is None


# ---------------------------------------------------------------------------
# Circuit open-time history round-trip


class TestBreakerHistoryRoundTrip:
    def trip_cycle(self, mon: HealthMonitor) -> None:
        mon.observe_attempt("gpu0", "launch_error", now_ms=1.0)
        mon.observe_attempt("gpu0", "launch_error", now_ms=2.0)  # trips
        assert mon.allows("gpu0", 10.0)   # cooldown elapsed
        mon.admit("gpu0", 10.0)           # -> half-open
        mon.observe_attempt("gpu0", "launch_error", now_ms=11.0)  # re-open

    @staticmethod
    def policy(trip_limit: int) -> HealthPolicy:
        # Signal thresholds no EWMA reaches: only the circuit's open
        # history can quarantine the device here.
        return HealthPolicy(failure_threshold=2, cooldown_ms=5.0,
                            trip_limit=trip_limit, suspect_fault_rate=2.0,
                            quarantine_fault_rate=2.0)

    def test_transitions_survive_state_dict_round_trip(self):
        mon = HealthMonitor(make_pool(1, seed=1), policy=self.policy(99))
        self.trip_cycle(mon)
        clone = HealthMonitor(make_pool(1, seed=1), policy=self.policy(99))
        clone.load_state_dict(mon.state_dict())
        h, c = mon.devices["gpu0"], clone.devices["gpu0"]
        assert c.circuit == h.circuit == OPEN
        assert c.open_times == h.open_times == [2.0, 11.0]
        # The flap rule reads the same count from the restored history:
        # a third open inside the window is a flap for both.
        for m in (mon, clone):
            m.policy = self.policy(3)
            m.admit("gpu0", 16.0)
            m.observe_attempt("gpu0", "launch_error", now_ms=17.0)
        assert clone.state_of("gpu0") == mon.state_of("gpu0") == QUARANTINED
        assert clone.transitions == mon.transitions
        assert clone.transitions[-1]["reason"] == "flap"


# ---------------------------------------------------------------------------
# HealthMonitor unit behaviour


def quick_policy(**kw) -> HealthPolicy:
    kw.setdefault("quarantine_ms", 0.05)
    return HealthPolicy(**kw)


class TestHealthLifecycle:
    def test_fault_signal_walks_active_suspect_quarantined(self):
        pool = make_pool(2, seed=1)
        mon = HealthMonitor(pool, policy=quick_policy())
        mon.observe_attempt("gpu0", "launch_error", now_ms=0.1)
        assert mon.state_of("gpu0") == SUSPECT      # ewma 0.30
        mon.observe_attempt("gpu0", "launch_error", now_ms=0.2)
        assert mon.state_of("gpu0") == SUSPECT      # ewma 0.51
        mon.observe_attempt("gpu0", "launch_error", now_ms=0.3)
        assert mon.state_of("gpu0") == QUARANTINED  # ewma 0.657
        assert not mon.allows("gpu0")
        assert mon.allows("gpu1") and mon.allows("cpu")

    def test_suspect_clears_back_to_active(self):
        pool = make_pool(1, seed=1)
        mon = HealthMonitor(pool, policy=quick_policy())
        mon.observe_attempt("gpu0", "launch_error", now_ms=0.1)
        assert mon.state_of("gpu0") == SUSPECT
        for i in range(6):
            mon.observe_attempt("gpu0", "ok", ratio=1.0,
                                now_ms=0.2 + i * 0.1)
        assert mon.state_of("gpu0") == ACTIVE
        assert [t["to"] for t in mon.transitions] == [SUSPECT, ACTIVE]

    def test_latency_signal_quarantines_without_any_fault(self):
        pool = make_pool(1, seed=1)
        mon = HealthMonitor(pool, policy=quick_policy())
        mon.observe_attempt("gpu0", "ok", ratio=3.0, now_ms=0.1)
        mon.observe_attempt("gpu0", "ok", ratio=3.0, now_ms=0.2)
        assert mon.state_of("gpu0") == QUARANTINED
        assert mon.devices["gpu0"].ewma_fault == 0.0

    def test_canary_readmission_of_healed_device(self):
        pool = make_pool(2, seed=1, hot=1)
        mon = HealthMonitor(pool, policy=quick_policy(), seed=9)
        for t in (0.1, 0.2, 0.3):
            mon.observe_attempt("gpu1", "launch_error", now_ms=t)
        assert mon.state_of("gpu1") == QUARANTINED
        clock = {"gpu0": 0.0, "gpu1": 0.3}
        # Still inside the dwell: nothing happens.
        mon.maybe_readmit(0.31, clock)
        assert mon.state_of("gpu1") == QUARANTINED
        # Heal the device, serve the dwell: canaries pass -> probation.
        pool.by_name("gpu1").fault_rates = {}
        mon.maybe_readmit(0.5, clock)
        assert mon.state_of("gpu1") == PROBATION
        assert clock["gpu1"] > 0.3       # canary cost charged to gpu1
        assert clock["gpu0"] == 0.0      # ...and only to gpu1
        # Two clean probation chunks -> active.
        mon.observe_attempt("gpu1", "ok", ratio=1.0, now_ms=0.6)
        mon.observe_attempt("gpu1", "ok", ratio=1.0, now_ms=0.7)
        assert mon.state_of("gpu1") == ACTIVE

    def test_canaries_keep_faulty_device_quarantined(self):
        pool = make_pool(2, seed=1, hot=1)   # gpu1 fails every launch
        mon = HealthMonitor(pool, policy=quick_policy(), seed=9)
        for t in (0.1, 0.2, 0.3):
            mon.observe_attempt("gpu1", "launch_error", now_ms=t)
        clock = {"gpu0": 0.0, "gpu1": 0.3}
        mon.maybe_readmit(0.5, clock)
        assert mon.state_of("gpu1") == QUARANTINED
        # The failed round restarted the dwell.
        assert mon.devices["gpu1"].quarantined_at_ms == 0.5
        assert mon.devices["gpu1"].canary_round == 1

    def test_probation_failure_requarantines_then_evicts(self):
        pool = make_pool(2, seed=1, spares=1)
        mon = HealthMonitor(pool, policy=quick_policy(max_roundtrips=2),
                            seed=9)
        clock = {n: 0.0 for n in ("gpu0", "gpu1", "spare0")}

        def cycle(base):
            for i in range(3):
                mon.observe_attempt("gpu1", "launch_error",
                                    now_ms=base + 0.1 * i)
            assert mon.state_of("gpu1") == QUARANTINED
            mon.maybe_readmit(base + 1.0, clock)
            assert mon.state_of("gpu1") == PROBATION

        cycle(0.0)
        # The probation chunk fails: round-trip 1.
        mon.observe_attempt("gpu1", "launch_error", now_ms=1.1)
        assert mon.state_of("gpu1") == QUARANTINED
        assert mon.devices["gpu1"].roundtrips == 1
        mon.maybe_readmit(2.2, clock)
        assert mon.state_of("gpu1") == PROBATION
        mon.observe_attempt("gpu1", "launch_error", now_ms=2.3)  # round-trip 2
        assert mon.state_of("gpu1") == EVICTED
        assert not mon.allows("gpu1")
        # The warm spare took its slot.
        assert mon.state_of("spare0") == ACTIVE
        assert pool.names == ["gpu0", "gpu1", "spare0"]
        assert pool.spare_names == []

    def test_state_dict_round_trip_reapplies_promotion(self):
        pool = make_pool(2, seed=1, spares=1)
        mon = HealthMonitor(pool, policy=quick_policy(max_roundtrips=1),
                            seed=9)
        clock = {n: 0.0 for n in ("gpu0", "gpu1", "spare0")}
        for i in range(3):
            mon.observe_attempt("gpu1", "launch_error", now_ms=0.1 * (i + 1))
        mon.maybe_readmit(1.0, clock)
        mon.observe_attempt("gpu1", "launch_error", now_ms=1.1)
        assert mon.state_of("gpu1") == EVICTED

        fresh_pool = make_pool(2, seed=1, spares=1)
        fresh = HealthMonitor(fresh_pool,
                              policy=quick_policy(max_roundtrips=1),
                              seed=9)
        fresh.load_state_dict(mon.state_dict())
        assert fresh.state_of("gpu1") == EVICTED
        assert fresh.state_of("spare0") == ACTIVE
        assert fresh_pool.names == pool.names       # promotion re-applied
        assert fresh_pool.spare_names == []
        assert fresh.transitions == mon.transitions
        assert fresh.devices["gpu1"].ewma_fault == \
            mon.devices["gpu1"].ewma_fault

    def test_spares_start_outside_placement(self):
        pool = make_pool(2, seed=1, spares=2)
        mon = HealthMonitor(pool)
        assert mon.state_of("spare0") == SPARE
        assert not mon.allows("spare0")
        assert pool.names == ["gpu0", "gpu1"]


# ---------------------------------------------------------------------------
# Acceptance: brownout chaos (satellite 3)


def brownout_pool():
    """gpu1 browns out (3x latency, open-ended) from t=0; no faults."""
    return make_pool(3, seed=5, hot=1,
                     hot_processes=(BrownoutProcess(multiplier=3.0),))


class TestBrownoutAcceptance:
    JOBS = 4

    def run_once(self, pool_fn, seed=13):
        col = telemetry.deterministic_collector(seed)
        with telemetry.collect(col):
            sched = make_sched(pool_fn(), seed=seed,
                               health_policy=quick_policy())
            reports = [sched.run_job(make_job(batch(), job_id=f"j{i}"))
                       for i in range(self.JOBS)]
        return sched, reports, col

    def test_brownout_device_ends_quarantined_with_zero_failures(self):
        sched, reports, _ = self.run_once(brownout_pool)
        assert all(r.ok for r in reports)
        assert sum(len(r.failed_chunks) for r in reports) == 0
        assert sum(len(r.degraded_chunks) for r in reports) == 0
        assert sched.health.state_of("gpu1") == QUARANTINED
        # Once quarantined, gpu1 serves nothing.
        quarantined_at = next(t["at_ms"] for t in sched.health.transitions
                              if t["to"] == QUARANTINED)
        for r in reports:
            for c in r.chunks:
                if c.device == "gpu1":
                    assert c.start_ms <= quarantined_at
        # And the solutions are right.
        rel = np.abs(reports[-1].x)
        assert np.all(np.isfinite(rel))

    def test_p99_within_2x_of_healthy_baseline(self):
        sched_hot, _, _ = self.run_once(brownout_pool)
        sched_ok, _, _ = self.run_once(lambda: make_pool(3, seed=5))
        p99_hot = sched_hot.slo.snapshot()["standard"]["latency_ms"]["p99"]
        p99_ok = sched_ok.slo.snapshot()["standard"]["latency_ms"]["p99"]
        assert p99_hot <= 2.0 * p99_ok

    def test_same_seed_runs_bitwise_identical(self):
        sched_a, reports_a, col_a = self.run_once(brownout_pool)
        sched_b, reports_b, col_b = self.run_once(brownout_pool)
        assert [r.to_dict() for r in reports_a] == \
            [r.to_dict() for r in reports_b]
        assert sched_a.health.transitions == sched_b.health.transitions
        assert sched_a.health.snapshot() == sched_b.health.snapshot()
        assert telemetry.to_jsonl(col_a) == telemetry.to_jsonl(col_b)
        assert telemetry.prometheus_text(col_a) == \
            telemetry.prometheus_text(col_b)

    def test_health_gauges_and_lifecycle_counters_exported(self):
        _, _, col = self.run_once(brownout_pool)
        snap = col.metrics.snapshot()
        assert any(k.startswith("serve.health_score")
                   for k in snap["gauges"])
        assert any(k.startswith("serve.lifecycle_transitions")
                   for k in snap["counters"])
        assert any(k.startswith("serve.canary_total")
                   for k in snap["counters"])


# ---------------------------------------------------------------------------
# Acceptance: brownout + flap + warm spare (the tentpole chaos scenario)


def chaos_pool():
    """gpu1 flaps (seeded fault bursts), gpu2 browns out for a window,
    one warm spare waits."""
    devices = [
        PooledDevice("gpu0", GTX280, seed=derive_seed(5, 0)),
        PooledDevice("gpu1", GTX280, seed=derive_seed(5, 1),
                     processes=(FlappingProcess(
                         seed=derive_seed(5, "flap"), period_ms=0.05,
                         duty=0.6, fault_rate=1.0),)),
        PooledDevice("gpu2", GTX280, seed=derive_seed(5, 2),
                     processes=(BrownoutProcess(
                         start_ms=0.0, duration_ms=0.3,
                         multiplier=3.0),)),
    ]
    spares = [PooledDevice("spare0", GTX280,
                           seed=derive_seed(5, "spare", 0))]
    return DevicePool(devices, spares=spares)


def chaos_sched(pool, **kw):
    kw.setdefault("seed", 13)
    kw.setdefault("health_policy",
                  quick_policy(failure_threshold=2, cooldown_ms=0.1,
                               max_roundtrips=1, probation_chunks=2))
    return make_sched(pool, **kw)


class TestChaosLifecycleAcceptance:
    JOBS = 16

    def run_once(self, seed=13, **kw):
        col = telemetry.deterministic_collector(seed)
        with telemetry.collect(col):
            sched = chaos_sched(chaos_pool(), seed=seed, **kw)
            reports = [sched.run_job(make_job(batch(), job_id=f"j{i}"))
                       for i in range(self.JOBS)]
        return sched, reports, col

    def test_no_failed_jobs_flapper_evicted_spare_promoted(self):
        sched, reports, _ = self.run_once()
        assert all(r.ok for r in reports)
        assert sum(len(r.failed_chunks) for r in reports) == 0
        # The flapping device made its quarantine round-trip and was
        # evicted; the warm spare was promoted and served chunks.
        assert sched.health.state_of("gpu1") == EVICTED
        assert sched.health.state_of("spare0") == ACTIVE
        assert sched.pool.names == ["gpu0", "gpu1", "gpu2", "spare0"]
        assert sched.pool.spare_names == []
        spare_chunks = sum(r.devices_used().get("spare0", 0)
                           for r in reports)
        assert spare_chunks > 0
        # The browned-out device recovered after its window: full
        # quarantine -> canary -> probation -> active arc in the log.
        arc = [(t["to"], t["reason"]) for t in sched.health.transitions
               if t["device"] == "gpu2"]
        assert (QUARANTINED, "signal") in arc
        assert (PROBATION, "canary_ok") in arc
        assert (ACTIVE, "probation_ok") in arc

    def test_evicted_device_serves_nothing_afterwards(self):
        sched, reports, _ = self.run_once()
        evicted_at = next(t["at_ms"] for t in sched.health.transitions
                          if t["to"] == EVICTED)
        for r in reports:
            for c in r.chunks:
                assert not (c.device == "gpu1" and c.start_ms > evicted_at)

    def test_same_seed_chaos_runs_bitwise_identical(self):
        sched_a, reports_a, col_a = self.run_once()
        sched_b, reports_b, col_b = self.run_once()
        assert [r.to_dict() for r in reports_a] == \
            [r.to_dict() for r in reports_b]
        assert sched_a.health.transitions == sched_b.health.transitions
        assert telemetry.to_jsonl(col_a) == telemetry.to_jsonl(col_b)


# ---------------------------------------------------------------------------
# Hedged chunk execution


class TestHedgedChunks:
    def run_once(self, hedge_ratio=1.5, seed=13):
        col = telemetry.deterministic_collector(seed)
        with telemetry.collect(col):
            sched = make_sched(brownout_pool(), seed=seed,
                               hedge_ratio=hedge_ratio,
                               health_policy=quick_policy())
            reports = [sched.run_job(make_job(batch(), job_id=f"j{i}"))
                       for i in range(2)]
        return sched, reports, col

    def all_attempts(self, reports):
        return [a for r in reports for c in r.chunks for a in c.attempts]

    def test_slow_chunks_get_hedged_and_loser_is_cancelled(self):
        _, reports, col = self.run_once()
        outcomes = [a.outcome for a in self.all_attempts(reports)]
        assert "hedge_cancelled" in outcomes
        hedges = col.metrics.snapshot()["counters"].get(
            "serve.hedges_total", {})
        launched = sum(v for k, v in hedges.items()
                       if "outcome=launched" in k)
        settled = sum(v for k, v in hedges.items()
                      if "outcome=won" in k or "outcome=cancelled" in k
                      or "outcome=failed" in k)
        assert launched > 0
        # Every launched hedge settles the race one way or the other
        # (cancelled counts both losing hedges and cancelled primaries,
        # hence >=).
        assert settled >= launched
        assert all(r.ok for r in reports)

    def test_hedging_disabled_by_default(self):
        sched, reports, _ = self.run_once(hedge_ratio=None)
        assert sched.hedge_ratio is None
        assert not any(a.outcome.startswith("hedge")
                       for a in self.all_attempts(reports))

    def test_hedged_runs_are_deterministic(self):
        _, reports_a, col_a = self.run_once()
        _, reports_b, col_b = self.run_once()
        assert [r.to_dict() for r in reports_a] == \
            [r.to_dict() for r in reports_b]
        assert telemetry.to_jsonl(col_a) == telemetry.to_jsonl(col_b)

    def test_device_outcomes_table_counts_hedges(self):
        _, reports, _ = self.run_once()
        agg: dict[str, int] = {}
        for r in reports:
            for dev, row in r.device_outcomes().items():
                agg[dev] = agg.get(dev, 0) + row["hedged"]
        assert sum(agg.values()) > 0


# ---------------------------------------------------------------------------
# Kill/resume: lifecycle + hedging state round-trips through checkpoints


class TestHealthCheckpointResume:
    def big_job(self, **kw):
        systems = diagonally_dominant_fluid(48, 64, seed=11)
        return make_job(systems, **kw)

    def sched_for(self, tmp_path, tag):
        return make_sched(brownout_pool(), seed=13, hedge_ratio=1.5,
                          health_policy=quick_policy(quarantine_ms=0.005),
                          checkpoint_dir=str(tmp_path / tag))

    def test_resumed_run_matches_straight_run_bitwise(self, tmp_path):
        straight = self.sched_for(tmp_path, "a")
        full = straight.run_job(self.big_job(job_id="kr"))
        assert full.ok
        # The lifecycle actually engaged mid-job.
        assert straight.health.transitions

        killed = self.sched_for(tmp_path, "b")
        partial = killed.run_job(self.big_job(job_id="kr"), stop_after=5)
        assert partial.outcome == "stopped"

        resumed_sched = self.sched_for(tmp_path, "b")
        resumed = resumed_sched.run_job(self.big_job(job_id="kr"),
                                        resume=True)
        assert resumed.ok
        assert resumed.restored_chunks == [0, 1, 2, 3]
        assert np.array_equal(resumed.x, full.x)
        assert resumed.solution_digest() == full.solution_digest()
        assert {c.chunk_id: c.device for c in full.chunks} == \
            {c.chunk_id: c.device for c in resumed.chunks}
        # The health picture converges to the straight run's.
        assert {n: h.state
                for n, h in resumed_sched.health.devices.items()} == \
            {n: h.state for n, h in straight.health.devices.items()}

    def test_two_killed_and_resumed_runs_identical(self, tmp_path):
        def killed_resumed(tag):
            sched = self.sched_for(tmp_path, tag)
            sched.run_job(self.big_job(job_id="kr"), stop_after=5)
            sched = self.sched_for(tmp_path, tag)
            report = sched.run_job(self.big_job(job_id="kr"), resume=True)
            return sched, report

        sched_a, rep_a = killed_resumed("x")
        sched_b, rep_b = killed_resumed("y")
        assert rep_a.to_dict() == rep_b.to_dict()
        assert sched_a.health.snapshot() == sched_b.health.snapshot()

    def test_health_survives_checkpoint_state_line(self, tmp_path):
        import json
        sched = self.sched_for(tmp_path, "c")
        sched.run_job(self.big_job(job_id="kr"), stop_after=5)
        path = tmp_path / "c" / "journal.jsonl"
        states = [json.loads(line) for line in path.read_text().splitlines()
                  if json.loads(line).get("type") == "state"]
        assert states and "health" in states[-1]
        assert "gpu1" in states[-1]["health"]["devices"]


# ---------------------------------------------------------------------------
# Resume at any kill point


def hot_pool():
    """gpu1 fails every launch fatally; gpu0/gpu2 healthy."""
    return make_pool(3, seed=5, hot=1, hot_rates={"launch_fatal_rate": 1.0})


class TestResumeAtEveryKillPoint:
    """A 12-chunk job killed after every chunk (one barrier per chunk)
    and resumed makes the straight run's decisions -- placement,
    clocks, circuits, lifecycle and the deadline budget -- not just its
    solution."""

    POOLS = {
        "hot": (hot_pool, dict(health_policy=quick_policy(
            failure_threshold=2, cooldown_ms=0.02))),
        "brownout": (brownout_pool, dict(hedge_ratio=1.5,
                                         health_policy=quick_policy(
                                             quarantine_ms=0.005))),
    }

    def run(self, pool, ckpt_dir, **run_kw):
        pool_fn, kw = self.POOLS[pool]
        sched = make_sched(pool_fn(), seed=13, checkpoint_every=1,
                           checkpoint_dir=str(ckpt_dir), **kw)
        job = make_job(diagonally_dominant_fluid(48, 64, seed=11),
                       job_id="kr", deadline_ms=500.0)
        report = sched.run_job(job, **run_kw)
        doc = report.to_dict()
        doc.pop("restored_chunks")
        for c in doc["chunks"]:
            c.pop("status")
        return doc, {"health": sched.health.state_dict(),
                     "clocks": dict(sched._clock),
                     "cpu_clock": sched._cpu_clock, "now_ms": sched.now_ms}

    @pytest.mark.parametrize("pool", sorted(POOLS))
    def test_every_kill_point_resumes_the_straight_run(self, tmp_path, pool):
        straight = self.run(pool, tmp_path / "straight")
        assert straight[0]["num_chunks"] == 12
        for k in range(1, 12):
            ckpt = tmp_path / f"kill{k}"
            self.run(pool, ckpt, stop_after=k)
            assert self.run(pool, ckpt, resume=True) == straight, \
                f"resume after a kill at chunk {k} diverged"
