"""The layout autotuner: analytic ranking and placement."""

import dataclasses

import pytest

from repro.analysis.device_study import FERMI_LIKE
from repro.analysis.layout_autotuner import CANDIDATES, choose_layout
from repro.gpusim import GTX280, estimate_ms


class TestChoice:
    def test_large_batch_small_n_interleaved_thomas(self):
        c = choose_layout(2048, 8)
        assert (c.method, c.layout) == ("thomas", "interleaved")

    def test_single_large_system_sequential_hybrid(self):
        c = choose_layout(1, 512)
        assert c.layout == "sequential"
        assert c.method in ("cr_pcr", "pcr")

    def test_ranking_is_complete_and_sorted(self):
        c = choose_layout(64, 64)
        assert len(c.ranking) == len(CANDIDATES)
        costs = [r.predicted_ms for r in c.ranking
                 if r.predicted_ms is not None]
        assert costs == sorted(costs)
        assert c.predicted_ms == costs[0]

    def test_infeasible_candidates_carry_reasons(self):
        c = choose_layout(4, 100)   # non-power-of-two n
        infeasible = {(r.method, r.layout): r.reason for r in c.ranking
                      if r.predicted_ms is None}
        assert ("pcr", "sequential") in infeasible
        assert "power-of-two" in infeasible[("pcr", "sequential")]
        # thomas has no size restriction: still chosen
        assert c.method == "thomas"

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="num_systems"):
            choose_layout(0, 8)
        with pytest.raises(ValueError, match="n must be"):
            choose_layout(4, 1)


class TestRankedByEstimator:
    def test_predictions_are_the_estimate_for_the_device(self):
        """Every ranked cost is the estimator's for *this* device,
        bitwise -- also for a different device sharing its name."""
        twin = dataclasses.replace(FERMI_LIKE, name=GTX280.name)
        picks = []
        for device in (GTX280, twin):
            c = choose_layout(2048, 8, device=device)
            for r in c.ranking:
                assert r.predicted_ms == estimate_ms(
                    r.method, 8, 2048, device=device, layout=r.layout)
            picks.append(c.predicted_ms)
        assert picks[0] != picks[1]
