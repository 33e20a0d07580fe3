"""Trace formatting tools."""

import pytest

from repro.analysis.trace import full_trace, phase_trace, step_trace
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid


@pytest.fixture(scope="module")
def launch():
    s = diagonally_dominant_fluid(2, 64, seed=0)
    _x, res = run_kernel("cr", s)
    return res


class TestStepTrace:
    def test_one_row_per_step(self, launch):
        text = step_trace(launch)
        data_rows = text.splitlines()[2:]
        assert len(data_rows) == len(launch.ledger.step_records)

    def test_columns_present(self, launch):
        head = step_trace(launch).splitlines()[0]
        for col in ("phase", "threads", "n-way", "us"):
            assert col in head


class TestPhaseTrace:
    def test_all_phases_listed(self, launch):
        text = phase_trace(launch)
        for name in launch.ledger.phases:
            assert name in text
        assert "TOTAL" in text

    def test_shares_sum_to_total_minus_launch_overhead(self, launch):
        from repro.gpusim import gt200_cost_model
        rep = gt200_cost_model().report(launch)
        expected = 100.0 * (1.0 - rep.launch_overhead_ms / rep.total_ms)
        shares = [float(line.split()[-1].rstrip("%"))
                  for line in phase_trace(launch).splitlines()[2:-1]]
        assert sum(shares) == pytest.approx(expected, abs=1.0)


class TestFullTrace:
    def test_contains_occupancy_line(self, launch):
        text = full_trace(launch)
        assert "block(s)/SM" in text
        assert "limited by" in text
