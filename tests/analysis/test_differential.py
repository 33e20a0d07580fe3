"""Differential timing: the early-exit probe equals direct attribution."""

import numpy as np
import pytest

from repro.analysis.differential import (attributed_step_times,
                                         differential_step_times,
                                         phase_breakdown)
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid


@pytest.fixture(scope="module")
def batch():
    return diagonally_dominant_fluid(4, 32, seed=0)


class TestDifferentialEqualsAttributed:
    @pytest.mark.parametrize("name", ["cr", "pcr", "rd", "cr_pcr"])
    def test_probe_matches_ledger(self, name, batch):
        """The paper's truncate-and-difference procedure recovers the
        same per-step times the simulator attributes directly (for all
        steps after the first, which absorbs the preamble)."""
        from repro.numerics.generators import close_values
        systems = close_values(4, 32, seed=1) if name == "rd" else batch
        m = 8 if name == "cr_pcr" else None
        from repro.kernels.api import run_kernel
        _x, res = run_kernel(name, systems, intermediate_size=m)
        att = attributed_step_times(res)
        diff = differential_step_times(name, systems, intermediate_size=m)
        assert len(att) == len(diff)
        for a, d in zip(att[1:], diff[1:]):
            assert a.ms == pytest.approx(d.ms, abs=1e-12)
            assert (a.phase, a.index) == (d.phase, d.index)

    def test_first_difference_absorbs_preamble(self, batch):
        _x, res = run_kernel("cr", batch)
        att = attributed_step_times(res)
        diff = differential_step_times("cr", batch)
        # First differential entry > first attributed (staging included).
        assert diff[0].ms > att[0].ms


class TestPhaseBreakdown:
    def test_fractions_sum_to_one_minus_launch_overhead(self, batch):
        _x, res = run_kernel("cr", batch)
        from repro.gpusim import gt200_cost_model
        rows = phase_breakdown(res)
        total = sum(f for _n, _ms, f in rows)
        # Fractions are against the total including the fixed launch
        # overhead, so they sum to exactly 1 - overhead_share.
        rep = gt200_cost_model().report(res)
        expected = 1.0 - rep.launch_overhead_ms / rep.total_ms
        assert total == pytest.approx(expected, abs=1e-9)

    def test_merge_global(self, batch):
        _x, res = run_kernel("cr", batch)
        rows = phase_breakdown(res, merge_global=True)
        names = [n for n, _ms, _f in rows]
        assert "global_memory_access" in names
        assert "global_load" not in names

    def test_forward_dominates_cr(self, batch):
        """Fig 8: forward reduction is CR's largest phase."""
        _x, res = run_kernel("cr", batch)
        rows = dict((n, ms) for n, ms, _f in phase_breakdown(res))
        assert rows["forward_reduction"] == max(rows.values())

    def test_forward_about_twice_backward(self):
        """Fig 8: "forward reduction takes about twice as much time as
        backward substitution"."""
        s = diagonally_dominant_fluid(2, 512, seed=2)
        _x, res = run_kernel("cr", s)
        rows = dict((n, ms) for n, ms, _f in phase_breakdown(res))
        ratio = rows["forward_reduction"] / rows["backward_substitution"]
        assert 1.5 <= ratio <= 2.6
