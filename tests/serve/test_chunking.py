"""One launch per request: the scheduler's derived chunk (one occupancy
wave of the chunk's launch plan), explicit caps, the spreading
tie-break, and residual misses that re-solve only the failing
systems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.pool import make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.serve import scheduler as scheduler_mod
from repro.serve.job import GPU_METHODS
from repro.serve.scheduler import CPU_NS_PER_UNKNOWN
from repro.telemetry.metrics import COST_RESIDUAL

from .conftest import make_job, make_sched

pytestmark = pytest.mark.serve


def derived_job(systems, **kw):
    return make_job(systems, chunk_size=None, **kw)


def recording_launches(monkeypatch, corrupt_row=None):
    """Record every chunk launch's ``(x, per-block ledger)``;
    ``corrupt_row`` poisons that row of each launch's solution."""
    real = scheduler_mod.run_kernel
    seen = []

    def run_kernel(*args, **kw):
        x, launch = real(*args, **kw)
        if corrupt_row is not None:
            x = np.array(x)
            x[corrupt_row] = np.nan
        seen.append((np.array(x), launch.ledger))
        return x, launch

    monkeypatch.setattr(scheduler_mod, "run_kernel", run_kernel)
    return seen


class TestChunkingIsInvisible:
    """Kernels are per block, so how a job is cut into launches changes
    neither its solution nor any block's counters."""

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("method", GPU_METHODS)
    def test_caps_1_4_and_derived_agree(self, monkeypatch, method, n):
        systems = diagonally_dominant_fluid(12, n, seed=n)
        runs = {}
        for cap in (1, 4, None):
            seen = recording_launches(monkeypatch)
            report = make_sched(make_pool(2, seed=5)).run_job(
                make_job(systems, method=method, chunk_size=cap))
            monkeypatch.undo()
            assert report.ok
            assert len(seen) == {1: 12, 4: 3, None: 1}[cap]
            runs[cap] = (report.x, [ledger for _, ledger in seen])
        assert np.array_equal(runs[1][0], runs[4][0])
        assert np.array_equal(runs[1][0], runs[None][0])
        if method != "thomas":
            # One block per system: every launch charges the same block
            # (the per-thread Thomas block is the chunk itself).
            ledgers = [lg for _, lgs in runs.values() for lg in lgs]
            assert all(lg == ledgers[0] for lg in ledgers)


class TestDerivedChunk:
    @pytest.mark.parametrize("n, wave", [(32, 240), (64, 240), (128, 120)])
    def test_one_chunk_up_to_one_wave(self, healthy_pool, n, wave):
        sched = make_sched(healthy_pool)
        for num, chunks in ((1, 1), (wave - 1, 1), (wave, 1),
                            (wave + 1, 2)):
            job = derived_job(diagonally_dominant_fluid(num, n, seed=1))
            sched.resolve(job)
            assert job.chunk_size == min(num, wave)
            assert job.num_chunks == chunks

    def test_explicit_cap_wins(self, healthy_pool):
        job = make_job(diagonally_dominant_fluid(24, 64, seed=1),
                       chunk_size=7)
        make_sched(healthy_pool).resolve(job)
        assert (job.chunk_size, job.num_chunks) == (7, 4)

    def test_cap_above_the_batch_is_the_batch(self, healthy_pool):
        job = make_job(diagonally_dominant_fluid(3, 64, seed=1),
                       chunk_size=8)
        make_sched(healthy_pool).resolve(job)
        assert (job.chunk_size, job.num_chunks) == (3, 1)

    def test_resolving_again_is_a_no_op(self, healthy_pool):
        sched = make_sched(healthy_pool)
        job = derived_job(diagonally_dominant_fluid(300, 64, seed=1))
        sched.resolve(job)
        digest = job.input_digest()
        sched.resolve(job)
        assert job.chunk_size == 240 and job.input_digest() == digest

    def test_auto_ranks_the_chunk_that_runs(self, monkeypatch,
                                            healthy_pool):
        from repro.analysis import layout_autotuner
        real = layout_autotuner.choose_layout
        ranked = []

        def choose_layout(num_systems, n, **kw):
            ranked.append(num_systems)
            return real(num_systems, n, **kw)

        monkeypatch.setattr(layout_autotuner, "choose_layout",
                            choose_layout)
        sched = make_sched(healthy_pool)
        big = derived_job(diagonally_dominant_fluid(600, 32, seed=1),
                          method="auto")
        sched.resolve(big)
        assert ranked == [600, big.chunk_size] and big.num_chunks == 3
        ranked.clear()
        small = derived_job(diagonally_dominant_fluid(40, 32, seed=1),
                            method="auto")
        sched.resolve(small)
        assert ranked == [40] and small.chunk_size == 40

    def test_unresolved_job_has_no_chunks(self):
        job = derived_job(diagonally_dominant_fluid(8, 64, seed=1))
        with pytest.raises(ValueError, match="not resolved"):
            job.num_chunks

    def test_digest_does_not_depend_on_pool_size(self):
        systems = diagonally_dominant_fluid(300, 64, seed=1)
        digests = set()
        for devices in (2, 3):
            job = derived_job(systems)
            make_sched(make_pool(devices, seed=5)).resolve(job)
            digests.add((job.chunk_size, job.input_digest()))
        assert len(digests) == 1

    def test_partial_chunk_is_priced_at_its_own_size(self, healthy_pool):
        """600 systems of 32 run as 240/240/120: each launch is compared
        with its own price, so a healthy pool reads a realized/modeled
        ratio of exactly 1 and no cost residual."""
        from repro import telemetry
        sched = make_sched(healthy_pool)
        job = derived_job(diagonally_dominant_fluid(600, 32, seed=3))
        with telemetry.collect() as col:
            assert sched.run_job(job).ok
        assert [len(job.chunk_indices(i)) for i in range(job.num_chunks)] \
            == [240, 240, 120]
        assert {h.ewma_ratio for h in sched.health.devices.values()} == {1.0}
        residual = col.metrics.histogram(COST_RESIDUAL)
        series = list(residual.series.values())
        assert sum(s.count for s in series) == 3
        assert all(s.min == s.max == 0.0 for s in series)

    def test_derived_job_resumes_after_a_kill(self, tmp_path, healthy_pool):
        systems = diagonally_dominant_fluid(600, 32, seed=3)

        def run(ckpt, **kw):
            sched = make_sched(make_pool(3, seed=5), checkpoint_every=1,
                               checkpoint_dir=str(ckpt))
            return sched.run_job(derived_job(systems, job_id="big"), **kw)

        straight = run(tmp_path / "a")
        assert straight.num_chunks == 3
        run(tmp_path / "b", stop_after=1)
        resumed = run(tmp_path / "b", resume=True)
        assert resumed.restored_chunks == [0]
        assert resumed.solution_digest() == straight.solution_digest()
        assert ([c.device for c in resumed.chunks]
                == [c.device for c in straight.chunks])


class TestOneChunkJobs:
    def test_tie_break_spreads_jobs_over_the_pool(self, hot_pool):
        """Devices free at the same start tie-break to the one idle
        longest, so one-chunk jobs reach every device -- the hot one
        included, whose fault is retried elsewhere."""
        sched = make_sched(hot_pool)
        reports = [sched.run_job(derived_job(
            diagonally_dominant_fluid(8, 64, seed=i), job_id=f"j{i}"))
            for i in range(4)]
        assert all(r.ok and r.num_chunks == 1 for r in reports)
        attempted = {a.device for r in reports for c in r.chunks
                     for a in c.attempts}
        assert attempted == {"gpu0", "gpu1", "gpu2"}
        assert sum(r.total_retries for r in reports) >= 1
        assert {d for r in reports for d in r.devices_used()} == {
            "gpu0", "gpu2"}


class TestResidualMiss:
    def test_only_the_failing_system_goes_to_the_cpu(self, monkeypatch,
                                                    healthy_pool):
        systems = diagonally_dominant_fluid(8, 64, seed=4)
        healthy = make_sched(make_pool(3, seed=5)).run_job(
            derived_job(systems))
        cpu_batches = []
        real = scheduler_mod.robust_solve

        def robust_solve(a, *args, **kw):
            cpu_batches.append(np.atleast_2d(a).shape[0])
            return real(a, *args, **kw)

        monkeypatch.setattr(scheduler_mod, "robust_solve", robust_solve)
        recording_launches(monkeypatch, corrupt_row=2)
        report = make_sched(healthy_pool).run_job(derived_job(systems))
        (chunk,) = report.chunks
        assert chunk.status == "degraded" and chunk.device == "cpu"
        assert [a.outcome for a in chunk.attempts] == ["residual"]
        assert cpu_batches == [1]
        assert chunk.modeled_ms == 64 * CPU_NS_PER_UNKNOWN * 1e-6
        # The re-solve needs the launch's result: on the idle pool the
        # launch starts at 0, so the CPU work starts after it ends.
        assert chunk.start_ms >= chunk.attempts[0].modeled_ms
        assert chunk.end_ms == chunk.start_ms + chunk.modeled_ms
        keep = np.arange(8) != 2
        assert np.array_equal(report.x[keep], healthy.x[keep])
        assert report.ok
        np.testing.assert_allclose(report.x[2], healthy.x[2], rtol=1e-4)
