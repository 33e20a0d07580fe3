"""The guarded solve pipeline: routing, gating, escalation, reports."""

import numpy as np
import pytest

from repro import robust_solve, telemetry
from repro.numerics.generators import close_values, diagonally_dominant_fluid
from repro.resilience import SolveFailedError, SolveReport
from repro.solvers.api import SOLVERS
from repro.solvers.validate import InputValidationError
from repro.telemetry import resilience_summary
from repro.telemetry.metrics import FALLBACK_TOTAL, RESIDUAL_MAX


class TestHappyPath:
    def test_dominant_batch_first_method_accepts_all(self, dominant_small):
        s = dominant_small
        report = robust_solve(s.a, s.b, s.c, s.d)
        assert isinstance(report, SolveReport)
        assert report.all_accepted
        assert report.num_fallbacks == 0
        assert report.routes() == {("cr_pcr",): s.num_systems}
        assert report.methods_used() == {"cr_pcr": s.num_systems}
        assert report.max_residual < 1e-4
        for sr in report.systems:
            assert sr.reason == "ok"

    def test_single_system_keeps_1d_shape(self):
        s = diagonally_dominant_fluid(1, 64, seed=3)
        report = robust_solve(s.a[0], s.b[0], s.c[0], s.d[0])
        assert report.x.shape == (64,)
        assert report.all_accepted

    def test_non_power_of_two_padded_and_cropped(self):
        s = diagonally_dominant_fluid(4, 48, seed=5)
        report = robust_solve(s.a, s.b, s.c, s.d)
        assert report.x.shape == (4, 48)
        assert report.all_accepted
        # The answer matches the pivoting reference on the original size.
        x_ref = SOLVERS["gep"](s, intermediate_size=None)
        np.testing.assert_allclose(report.x, x_ref, rtol=1e-3, atol=1e-5)

    def test_pad_false_rejects_odd_sizes(self):
        s = diagonally_dominant_fluid(2, 48, seed=5)
        with pytest.raises(ValueError, match="pad=False"):
            robust_solve(s.a, s.b, s.c, s.d, pad=False)


class TestStabilityRouting:
    def test_non_dominant_pre_routes_to_pivoting(self, close_batch):
        """§5.4: systems the no-pivoting solvers cannot be trusted on
        never touch them."""
        s = close_batch
        report = robust_solve(s.a, s.b, s.c, s.d)
        assert report.all_accepted
        assert report.routes() == {("gep",): s.num_systems}
        assert report.max_residual < 1e-4

    def test_zero_pivot_system_routes_to_gep(self):
        # Nonsingular but with a zero leading pivot: fatal to every
        # no-pivoting method, routine for partial pivoting.
        a = np.array([0, 1, 1, 1], dtype=np.float32)
        b = np.array([0, 4, 4, 4], dtype=np.float32)
        c = np.array([1, 1, 1, 0], dtype=np.float32)
        d = np.array([1, 2, 3, 4], dtype=np.float32)
        report = robust_solve(a, b, c, d)
        (sr,) = report.systems
        assert sr.route == ["gep"]
        assert sr.accepted and sr.residual < 1e-6

    def test_mixed_batch_splits_routes(self):
        dom = diagonally_dominant_fluid(4, 64, seed=7)
        close = close_values(4, 64, seed=8)
        a = np.vstack([dom.a, close.a])
        b = np.vstack([dom.b, close.b])
        c = np.vstack([dom.c, close.c])
        d = np.vstack([dom.d, close.d])
        report = robust_solve(a, b, c, d)
        assert report.all_accepted
        routes = report.routes()
        assert routes[("cr_pcr",)] == 4
        assert routes[("gep",)] == 4
        # Pre-routed systems carry the unstable marker until accepted.
        assert all(report.systems[i].method == "gep" for i in range(4, 8))

    def test_exactly_singular_system_exhausts_chain(self):
        a = np.array([0, 0, 1, 1], dtype=np.float32)
        b = np.array([1, 0, 1, 4], dtype=np.float32)   # zero row: singular
        c = np.array([1, 0, 1, 0], dtype=np.float32)
        d = np.array([1, 2, 3, 4], dtype=np.float32)
        with pytest.raises(SolveFailedError) as exc_info:
            robust_solve(a, b, c, d)
        report = exc_info.value.report
        assert report.failed_indices == [0]
        assert report.systems[0].reason == "exhausted"

    def test_raise_on_failure_false_returns_flagged_report(self):
        a = np.array([0, 0, 1, 1], dtype=np.float32)
        b = np.array([1, 0, 1, 4], dtype=np.float32)
        c = np.array([1, 0, 1, 0], dtype=np.float32)
        d = np.array([1, 2, 3, 4], dtype=np.float32)
        report = robust_solve(a, b, c, d, raise_on_failure=False)
        assert not report.all_accepted
        assert report.systems[0].accepted is False


class TestValidation:
    def test_nan_input_rejected_at_boundary(self, dominant_small):
        s = dominant_small.copy()
        s.d[2, 5] = np.nan
        with pytest.raises(InputValidationError, match="system index 2"):
            robust_solve(s.a, s.b, s.c, s.d)

    def test_check_finite_false_skips_validation(self, dominant_small):
        s = dominant_small.copy()
        s.d[0, 0] = np.nan
        report = robust_solve(s.a, s.b, s.c, s.d, check_finite=False,
                              raise_on_failure=False)
        # The poisoned system fails every method but is flagged, never
        # silently wrong; the healthy systems are unaffected.
        assert report.failed_indices == [0]
        assert all(sr.accepted for sr in report.systems[1:])

    def test_unknown_chain_method(self, dominant_small):
        s = dominant_small
        with pytest.raises(ValueError, match="unknown chain methods"):
            robust_solve(s.a, s.b, s.c, s.d, chain=("cr_pcr", "magma"))

    def test_empty_chain(self, dominant_small):
        s = dominant_small
        with pytest.raises(ValueError, match="must not be empty"):
            robust_solve(s.a, s.b, s.c, s.d, chain=())


class TestEscalationAndRefine:
    def test_tight_tolerance_escalates_on_residual(self, dominant_small):
        """A tolerance below float32 reach forces residual escalations
        and records each hop."""
        s = dominant_small
        report = robust_solve(s.a, s.b, s.c, s.d, residual_tol=1e-10,
                              raise_on_failure=False)
        assert report.num_fallbacks > 0
        rejected = [sr for sr in report.systems if len(sr.route) > 1]
        assert rejected
        assert all(sr.route[0] == "cr_pcr" for sr in rejected)

    def test_refine_retry_rescues_tight_tolerance(self):
        """With refine=True the same tight tolerance is met on the
        first method via mixed-precision refinement -- no fallback."""
        s = diagonally_dominant_fluid(6, 64, seed=9)
        report = robust_solve(s.a, s.b, s.c, s.d, chain=("cr_pcr", "gep"),
                              residual_tol=1e-9, refine=True)
        assert report.all_accepted
        assert report.routes() == {("cr_pcr",): 6}
        assert report.attempts[0].refine_retries == 6
        assert report.total_retries == 6
        assert report.max_residual < 1e-9


class TestReport:
    def test_to_dict_round_trips_key_fields(self, dominant_small):
        s = dominant_small
        report = robust_solve(s.a, s.b, s.c, s.d)
        doc = report.to_dict()
        assert doc["all_accepted"] is True
        assert doc["num_systems"] == s.num_systems
        assert doc["chain"] == ["cr_pcr", "pcr", "thomas", "gep"]
        assert doc["routes"] == {"cr_pcr": s.num_systems}
        assert len(doc["systems"]) == s.num_systems
        assert doc["attempts"][0]["method"] == "cr_pcr"
        import json
        json.dumps(doc)     # JSON-ready, as promised

    def test_summary_renders(self, close_batch):
        s = close_batch
        report = robust_solve(s.a, s.b, s.c, s.d)
        text = report.summary()
        assert "robust solve report" in text
        assert "gep" in text
        assert f"{s.num_systems} (" in text


class TestTelemetryIntegration:
    def test_fallback_counter_and_residual_histogram(self, close_batch):
        s = close_batch
        with telemetry.collect() as col:
            robust_solve(s.a, s.b, s.c, s.d)
        fallback = col.metrics.counter(FALLBACK_TOTAL, "")
        assert fallback.value(**{"from": "(entry)", "to": "gep",
                                 "reason": "unstable"}) == s.num_systems
        hist = col.metrics.histogram(RESIDUAL_MAX, "")
        assert hist.count(method="gep") == 1
        span_names = [sp.name for sp in col.spans]
        assert "robust_solve" in span_names

    def test_resilience_section_in_text_summary(self, close_batch):
        s = close_batch
        with telemetry.collect() as col:
            robust_solve(s.a, s.b, s.c, s.d)
        lines = resilience_summary(col)
        joined = "\n".join(lines)
        assert "unstable" in joined and "gep" in joined
        assert joined in telemetry.text_summary(col)

    def test_disabled_telemetry_records_nothing(self, dominant_small):
        s = dominant_small
        assert not telemetry.enabled()
        report = robust_solve(s.a, s.b, s.c, s.d)
        assert report.all_accepted


class TestResidualGate:
    @staticmethod
    def reference(sub, x):
        """The gate as first written: a float64 copy of ``d`` and an
        explicit non-finite pass over ``x``."""
        dn = np.linalg.norm(sub.d.astype(np.float64), axis=1)
        dn = np.where(dn == 0, 1.0, dn)
        with np.errstate(all="ignore"):
            rel = sub.residual(x) / dn
        rel = np.where(np.isfinite(rel), rel, np.inf)
        return np.where(np.isfinite(x).all(axis=1), rel, np.inf)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_reference(self, dtype):
        from repro.resilience.pipeline import _relative_residuals

        s = diagonally_dominant_fluid(12, 32, seed=9).astype(dtype)
        s.d[1] = 0.0                                # ||d|| = 0 reads as 1
        s.b[2, 5] = 0.0                             # 0 * inf is nan
        x = SOLVERS["gep"](s, intermediate_size=None).astype(dtype)
        x[2, 5] = np.inf
        x[3, 0] = np.nan
        x[4, 7] = -np.inf
        x[5] *= 1e30                                # overflowing residual
        x[6, 3] += 1.0                              # a plain miss
        rel = _relative_residuals(s, x)
        ref = self.reference(s, x)
        assert rel.tobytes() == ref.tobytes()
        assert np.isinf(rel[2:5]).all()
        assert (rel <= 1e-4).tolist() == (ref <= 1e-4).tolist()
