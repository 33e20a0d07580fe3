"""Units for the seeded open-loop load generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import loadgen
from repro.serve.loadgen import (ArrivalProcess, SizeClass, TenantProfile,
                                 TenantSpec)

pytestmark = pytest.mark.serve


class TestArrivalProcess:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalProcess(rate_per_ms=0.0)
        with pytest.raises(ValueError):
            ArrivalProcess(rate_per_ms=1.0, burst_mean=0.5)

    def test_times_sorted_within_horizon(self):
        proc = ArrivalProcess(rate_per_ms=50.0, burst_mean=3.0,
                              burst_gap_ms=0.002)
        times = proc.times(np.random.default_rng(0), horizon_ms=4.0)
        assert times == sorted(times)
        assert all(0.0 <= t < 4.0 for t in times)

    def test_mean_rate_tracks_target_despite_bursts(self):
        rng = np.random.default_rng(1)
        for burst in (1.0, 4.0):
            proc = ArrivalProcess(rate_per_ms=100.0, burst_mean=burst)
            n = len(proc.times(rng, horizon_ms=50.0))
            assert n == pytest.approx(5000, rel=0.15)


class TestGenerate:
    def profiles(self):
        return loadgen.overload_profiles(2.0, scenario="mixed", tenants=3)

    def test_same_seed_same_stream(self):
        a = loadgen.generate(self.profiles(), horizon_ms=2.0, seed=42)
        b = loadgen.generate(self.profiles(), horizon_ms=2.0, seed=42)
        assert len(a) == len(b) > 0
        for ra, rb in zip(a, b):
            assert ra.request_id == rb.request_id
            assert ra.arrival_ms == rb.arrival_ms
            assert ra.slo_class == rb.slo_class
            assert np.array_equal(ra.systems.d, rb.systems.d)

    def test_different_seed_different_stream(self):
        a = loadgen.generate(self.profiles(), horizon_ms=2.0, seed=42)
        b = loadgen.generate(self.profiles(), horizon_ms=2.0, seed=43)
        assert [r.request_id for r in a] != [r.request_id for r in b] \
            or [r.arrival_ms for r in a] != [r.arrival_ms for r in b]

    def test_stream_is_totally_ordered(self):
        reqs = loadgen.generate(self.profiles(), horizon_ms=2.0, seed=7)
        keys = [(r.arrival_ms, r.tenant, r.request_id) for r in reqs]
        assert keys == sorted(keys)

    def test_tenant_independence(self):
        # Adding a tenant must not perturb the other tenants' streams.
        two = loadgen.generate(self.profiles()[:2], horizon_ms=2.0, seed=9)
        three = loadgen.generate(self.profiles(), horizon_ms=2.0, seed=9)
        kept = [r for r in three if r.tenant != "tenant2"]
        assert [r.request_id for r in kept] == [r.request_id for r in two]

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            TenantProfile(spec=TenantSpec("t"),
                          arrivals=ArrivalProcess(rate_per_ms=1.0),
                          mix=())


class TestOverloadProfiles:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            loadgen.overload_profiles(2.0, scenario="nope")

    @staticmethod
    def offered_load(chunk_size=None, horizon=4.0):
        """Offered cost of ``overload_profiles(2.0)`` per modeled ms,
        priced by the scheduler's estimate at ``chunk_size`` (``None``:
        the derived one-wave chunk every request runs with)."""
        import dataclasses

        from repro.gpusim.pool import make_pool
        from repro.serve import BatchScheduler
        sched = BatchScheduler(make_pool(2, seed=5), seed=0)
        profiles = [dataclasses.replace(p, mix=tuple(
            dataclasses.replace(s, chunk_size=chunk_size) for s in p.mix))
            for p in loadgen.overload_profiles(2.0, scenario="mixed",
                                               tenants=3)]
        reqs = loadgen.generate(profiles, horizon_ms=horizon, seed=42)
        return loadgen.offered_cost_ms(reqs, sched.estimate_job_ms) / horizon

    def test_offered_load_near_multiplier(self):
        # The calibrated mean-cost constants should put the offered
        # load within ~35% of the requested multiplier of the capacity
        # they are defined against: 4-system chunks.
        assert self.offered_load(chunk_size=4) == pytest.approx(2.0,
                                                                rel=0.35)

    @pytest.mark.xfail(strict=True, reason=(
        "mean_cost was measured on 4-system chunks; requests run as "
        "one-wave chunks, which offer about 1.14x, until mean_cost is "
        "derived from the estimator"))
    def test_offered_load_near_multiplier_on_derived_chunks(self):
        assert self.offered_load() == pytest.approx(2.0, rel=0.35)

    def test_mixes_cover_all_classes(self):
        for mix in (loadgen.adi3d_mix(), loadgen.ocean_mix()):
            classes = {s.slo_class for s in mix}
            assert classes == {"interactive", "standard", "batch"}
            assert all(isinstance(s, SizeClass) for s in mix)
