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
        """The job estimate is the idle pool's makespan: one chunk
        price per round of one chunk on each of the 2 devices."""
        from repro.gpusim.estimator import estimate_ms

        sched = self._scheduler()
        per_chunk = estimate_ms("cr", 64, 2)
        for num_systems, rounds in ((2, 1), (6, 2), (8, 2)):
            job = self._job(n=64, num_systems=num_systems, chunk_size=2)
            assert sched.estimate_job_ms(job) == per_chunk * rounds

    def test_estimate_priced_once_per_shape(self):
        """The scheduler keeps no estimate cache of its own: each chunk
        shape is priced once, on its plan's estimator memo entry."""
        from repro.gpusim import estimator

        estimator.clear_estimator_cache()
        sched = self._scheduler()
        assert not hasattr(sched, "_estimate_cache")
        first = sched.estimate_job_ms(self._job(n=64))
        assert sched.estimate_job_ms(self._job(n=64)) == first
        (entry,) = estimator._MEMO.values()
        reports = [k for k in entry._derived if k[0] == "report"]
        assert reports == [("report", sched._cost_model.params, 2)]
        sched.estimate_job_ms(self._job(n=32))
        assert len(estimator._MEMO) == 2

    def test_estimate_and_realized_cost_share_one_entry(self):
        """A healthy chunk's realized cost is the estimate it was
        admitted with: both read the plan's memo price."""
        sched = self._scheduler()
        job = self._job(n=64, num_systems=4, chunk_size=2)
        per_chunk = sched._chunk_estimate_ms(job)
        report = sched.run_job(job)
        assert [ch.modeled_ms for ch in report.chunks] == [per_chunk] * 2

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
