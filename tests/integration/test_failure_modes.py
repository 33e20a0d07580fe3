"""Failure injection: how every path behaves on bad inputs.

The no-pivoting solvers are *allowed* to fail on singular or
non-dominant systems (§5.4 says so); these tests pin down that the
failure is the documented one -- non-finite outputs or flagged
diagnostics, never silent wrong-but-finite answers on clean inputs,
and never crashes from the batched code paths.
"""

import warnings

import numpy as np
import pytest

from repro.numerics.generators import diagonally_dominant_fluid
from repro.numerics.residual import evaluate_accuracy
from repro.solvers.api import SOLVERS
from repro.solvers.systems import TridiagonalSystems


def _quiet(fn, *a, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*a, **kw)


class TestSingularInputs:
    def _singular(self, n=16):
        """Row of zeros: exactly singular."""
        s = diagonally_dominant_fluid(2, n, seed=0, dtype=np.float64)
        s.a[0, 5] = 0.0
        s.b[0, 5] = 0.0
        s.c[0, 5] = 0.0
        return s

    @pytest.mark.parametrize("name", ["thomas", "cr", "pcr"])
    def test_no_pivot_solvers_produce_nonfinite(self, name):
        """Singular input must not yield a clean-looking answer."""
        s = self._singular()
        x = _quiet(SOLVERS[name], s, intermediate_size=None)
        assert not np.isfinite(x[0]).all()

    def test_healthy_systems_in_batch_unaffected(self):
        """One singular system must not poison its batch neighbours."""
        s = self._singular()
        x = _quiet(SOLVERS["cr"], s, intermediate_size=None)
        assert np.isfinite(x[1]).all()
        assert s.residual(np.nan_to_num(x))[1] < 1e-8 or \
            TridiagonalSystems(s.a[1:], s.b[1:], s.c[1:],
                               s.d[1:]).residual(x[1:]).max() < 1e-8

    def test_gep_batched_flags_singularity(self):
        s = self._singular()
        x = _quiet(SOLVERS["gep"], s, intermediate_size=None)
        assert not np.isfinite(x[0]).all()

    def test_validate_hints_catch_it(self):
        from repro.solvers.validate import validate_nonsingular_hint
        msgs = validate_nonsingular_hint(self._singular())
        assert msgs  # at least one warning


class TestNaNPropagation:
    @pytest.mark.parametrize("name", ["thomas", "cr", "pcr", "gep", "qr"])
    def test_nan_rhs_stays_in_its_system(self, name):
        s = diagonally_dominant_fluid(3, 16, seed=1, dtype=np.float64)
        s.d[1, 7] = np.nan
        x = _quiet(SOLVERS[name], s, intermediate_size=None)
        assert not np.isfinite(x[1]).all()       # poisoned system fails
        assert np.isfinite(x[0]).all()           # neighbours fine
        assert np.isfinite(x[2]).all()


class TestDiagnostics:
    def test_accuracy_evaluation_never_raises(self):
        s = diagonally_dominant_fluid(4, 32, seed=2)
        x = np.full(s.shape, np.inf)
        res = _quiet(evaluate_accuracy, "broken", s, x)
        assert res.overflow_fraction == 1.0

    def test_condition_estimate_flags_near_singular(self):
        from repro.numerics.condition import condition_estimate
        s = diagonally_dominant_fluid(2, 16, seed=3, dtype=np.float64)
        s.b[0] *= 1e-14  # nearly scale-singular rows vs off-diagonals
        s.b[0] += s.a[0] + s.c[0]  # keep solvable but horrid
        est = _quiet(condition_estimate, s)
        assert est[0] > 100 * est[1] or est[0] > 1e6

    def test_refinement_reports_nonconvergence_not_garbage(self):
        from repro.solvers.refine import refined_solve
        s = diagonally_dominant_fluid(2, 16, seed=4)
        s.a[:, 3] = 0.0   # a whole zero row: exactly singular
        s.b[:, 3] = 0.0
        s.c[:, 3] = 0.0
        res = _quiet(refined_solve, s, method="cr", max_iterations=3)
        assert not res.converged

    def test_refinement_survives_mere_dominance_loss(self):
        """A zero *diagonal* entry alone does not make the matrix
        singular; CR plus refinement still reaches float64 accuracy --
        failure modes must not be over-reported."""
        from repro.solvers.refine import refined_solve
        s = diagonally_dominant_fluid(2, 16, seed=4)
        s.b[:, 3] = 0.0
        res = _quiet(refined_solve, s, method="cr", max_iterations=5)
        assert res.converged
        assert res.final_residual < 1e-12


class TestKernelRobustness:
    def test_kernel_layer_matches_numpy_on_singular(self):
        """Even on broken inputs, the kernels and NumPy layers agree
        (same arithmetic, same NaNs)."""
        from repro.kernels.api import run_kernel
        s = diagonally_dominant_fluid(2, 16, seed=5)
        s.b[0, 3] = 0.0
        x_np = _quiet(SOLVERS["cr"], s, intermediate_size=None)
        x_k, _ = _quiet(run_kernel, "cr", s)
        np.testing.assert_array_equal(np.isfinite(x_k), np.isfinite(x_np))

    def test_empty_batch_dimension(self):
        s = TridiagonalSystems(np.zeros((0, 8)), np.ones((0, 8)),
                               np.zeros((0, 8)), np.zeros((0, 8)))
        x = SOLVERS["thomas"](s, intermediate_size=None)
        assert x.shape == (0, 8)
