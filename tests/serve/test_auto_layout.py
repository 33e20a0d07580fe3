"""Joint solver+layout placement in the serving layer."""

import numpy as np
import pytest

from repro.kernels.api import KERNELS
from repro.numerics.generators import diagonally_dominant_fluid
from repro.resilience.pipeline import _relative_residuals
from repro.serve import SolveJob
from repro.solvers.api import SOLVERS

from .conftest import make_job, make_sched

#: The GPU methods a job may name: registry solvers with a kernel.
GPU_METHODS = sorted(KERNELS.keys() & SOLVERS.keys())


class TestJobValidation:
    def test_defaults_sequential(self, batch):
        job = make_job(batch)
        assert job.layout == "sequential"

    def test_unknown_layout_rejected(self, batch):
        with pytest.raises(ValueError, match="layout"):
            make_job(batch, layout="diagonal")

    def test_interleaved_needs_layout_aware_method(self, batch):
        with pytest.raises(ValueError, match="interleaved"):
            make_job(batch, method="cr", layout="interleaved")

    def test_interleaved_thomas_accepted(self, batch):
        job = make_job(batch, method="thomas", layout="interleaved")
        assert (job.method, job.layout) == ("thomas", "interleaved")

    def test_auto_method_accepted(self, batch):
        assert make_job(batch, method="auto").method == "auto"

    def test_thomas_takes_non_power_of_two_n(self):
        s = diagonally_dominant_fluid(8, 33, seed=1)
        job = make_job(s, method="thomas")
        assert job.systems.n == 33


class TestJobMethodTable:
    """``SolveJob`` accepts exactly the kernel table's registry solvers
    and validates their layout and ``n`` through ``plan_launch``."""

    def test_gpu_methods_are_the_six_registry_solvers(self):
        assert GPU_METHODS == ["cr", "cr_pcr", "cr_rd", "pcr", "rd",
                               "thomas"]

    @pytest.mark.parametrize("method", GPU_METHODS + ["auto"])
    def test_accepted(self, batch, method):
        assert make_job(batch, method=method).method == method

    @pytest.mark.parametrize("method", ["cr_split", "gep", "nope"])
    def test_rejected(self, batch, method):
        with pytest.raises(ValueError, match="unknown GPU method"):
            make_job(batch, method=method)

    @pytest.mark.parametrize("method", GPU_METHODS)
    def test_interleaved_for_thomas_only(self, batch, method):
        if method == "thomas":
            assert make_job(batch, method=method,
                            layout="interleaved").layout == "interleaved"
        else:
            with pytest.raises(ValueError, match="does not take layout"):
                make_job(batch, method=method, layout="interleaved")

    @pytest.mark.parametrize("method", GPU_METHODS + ["auto"])
    def test_non_power_of_two_for_thomas_and_auto_only(self, method):
        s = diagonally_dominant_fluid(8, 33, seed=1)
        if method in ("thomas", "auto"):
            assert make_job(s, method=method).systems.n == 33
        else:
            with pytest.raises(ValueError, match="power-of-two"):
                make_job(s, method=method)


class TestDigest:
    def test_digest_unchanged_for_default_layout(self, batch):
        """Checkpoint back-compat: sequential jobs must hash exactly as
        they did before the layout field existed."""
        a = make_job(batch).input_digest()
        b = make_job(batch, layout="sequential").input_digest()
        assert a == b
        assert "layout" not in "".join(
            c for c in a if not c.isdigit())  # digest is opaque hex

    def test_digest_differs_for_interleaved(self, batch):
        a = make_job(batch, method="thomas").input_digest()
        b = make_job(batch, method="thomas",
                     layout="interleaved").input_digest()
        assert a != b


class TestAutoResolution:
    def test_estimate_resolves_method_and_layout(self, healthy_pool):
        s = diagonally_dominant_fluid(2048, 8, seed=2)
        sched = make_sched(healthy_pool)
        job = make_job(s, method="auto", chunk_size=2048)
        ms = sched.estimate_job_ms(job)
        assert ms > 0
        assert (job.method, job.layout) == ("thomas", "interleaved")

    def test_single_large_system_stays_sequential(self, healthy_pool):
        s = diagonally_dominant_fluid(1, 512, seed=2)
        sched = make_sched(healthy_pool)
        job = make_job(s, method="auto", chunk_size=4)
        sched.estimate_job_ms(job)
        assert job.layout == "sequential"
        assert job.method in ("cr_pcr", "pcr")

    def test_run_job_resolves_and_solves(self, healthy_pool):
        s = diagonally_dominant_fluid(32, 16, seed=3)
        sched = make_sched(healthy_pool)
        job = make_job(s, method="auto")
        report = sched.run_job(job)
        assert report.ok
        assert job.method != "auto"
        assert np.all(_relative_residuals(s, report.x) <= 1e-4)

    def test_explicit_interleaved_thomas_end_to_end(self, healthy_pool):
        s = diagonally_dominant_fluid(24, 33, seed=4)   # non-pot n
        sched = make_sched(healthy_pool)
        report = sched.run_job(make_job(s, method="thomas",
                                        layout="interleaved"))
        assert report.ok
        assert np.all(_relative_residuals(s, report.x) <= 1e-4)
