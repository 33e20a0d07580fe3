"""The serve scheduler's admission estimates come from the analytic
estimator: no functional launch, and the same modeled milliseconds as
:func:`repro.gpusim.estimator.estimate_ms`."""

from repro import telemetry
from repro.numerics.generators import diagonally_dominant_fluid


class TestServeEstimatePath:
    def _scheduler(self):
        from repro.gpusim import make_pool
        from repro.serve import BatchScheduler

        pool = make_pool(2, seed=11)
        return BatchScheduler(pool)

    def _job(self, n=64, num_systems=8, chunk_size=2):
        from repro.serve import SolveJob

        systems = diagonally_dominant_fluid(num_systems, n, seed=4)
        return SolveJob(job_id="est", method="cr", systems=systems,
                        chunk_size=chunk_size)

    def test_estimate_is_analytic_no_launch(self):
        """Admission estimates must not execute kernels: no launch
        telemetry fires."""
        sched = self._scheduler()
        job = self._job()
        with telemetry.collect() as col:
            ms = sched.estimate_job_ms(job)
        assert ms > 0
        assert not col.launches
        assert "sim.launches" not in col.metrics.snapshot()["counters"]

    def test_estimate_matches_estimator_directly(self):
        from repro.gpusim.estimator import estimate_ms

        sched = self._scheduler()
        job = self._job(n=64, num_systems=8, chunk_size=2)
        per_chunk = estimate_ms("cr", 64, 2)
        expected = per_chunk * job.num_chunks / len(sched.pool)
        assert sched.estimate_job_ms(job) == expected

    def test_estimate_cache_keyed_per_shape(self):
        sched = self._scheduler()
        sched.estimate_job_ms(self._job(n=64))
        sched.estimate_job_ms(self._job(n=64))
        assert len(sched._estimate_cache) == 1
        sched.estimate_job_ms(self._job(n=32))
        assert len(sched._estimate_cache) == 2

    def test_run_job_still_solves_correctly(self):
        """End to end: admission via the analytic path, execution via
        planned launches, solutions still match the oracle."""
        from repro.verify.oracle import compare_to_oracle

        sched = self._scheduler()
        job = self._job(n=32, num_systems=4)
        report = sched.run_job(job)
        assert report.completed and report.outcome == "ok"
        comparison = compare_to_oracle(job.systems, report.x)
        assert comparison.rel_residual_max < 1e-4
