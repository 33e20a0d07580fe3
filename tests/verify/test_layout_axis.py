"""Layout as a real axis of the sim verification grid."""

import numpy as np
import pytest

from repro.kernels.api import KERNELS
from repro.verify.differential import (SIM_LAYOUTS, CellSpec, applicable,
                                       grid, verify_cell)
from repro.verify.generators import generate


def _spec(solver, layout, n=64, num_systems=4, klass="diagonally_dominant"):
    return CellSpec("sim", solver, layout, klass, n, num_systems, seed=0)


class TestGridEnumeratesLayouts:
    def test_layout_aware_solvers_get_both_layouts(self):
        specs = grid(sizes=(64,), engines=("sim",), solvers=["thomas"],
                     classes=["diagonally_dominant"])
        assert {s.layout for s in specs} == set(SIM_LAYOUTS)

    def test_shared_memory_solvers_stay_sequential(self):
        specs = grid(sizes=(64,), engines=("sim",), solvers=["cr", "pcr"],
                     classes=["diagonally_dominant"])
        assert {s.layout for s in specs} == {"global"}

    def test_full_sim_grid_contains_interleaved_thomas(self):
        specs = grid(sizes=(64,), engines=("sim",),
                     classes=["diagonally_dominant"])
        pairs = {(s.solver, s.layout) for s in specs}
        assert ("thomas", "interleaved") in pairs
        assert ("thomas", "global") in pairs


class TestApplicability:
    def test_interleaved_thomas_runs(self):
        assert applicable(_spec("thomas", "interleaved")) is None

    def test_interleaved_rejected_for_shared_memory_kernels(self):
        reason = applicable(_spec("cr", "interleaved"))
        assert reason is not None and "sequential layout" in reason

    def test_skip_reason_surfaces_in_cell_result(self):
        cell = verify_cell(_spec("pcr", "interleaved"))
        assert cell.status == "skipped"
        assert "sequential layout" in cell.message


class TestInterleavedThomasCells:
    @pytest.mark.parametrize("n", [33, 64])
    def test_cell_passes_budget(self, n):
        cell = verify_cell(_spec("thomas", "interleaved", n=n))
        assert cell.status == "pass", cell.message

    def test_interleaved_bitwise_equals_sequential(self):
        """The tentpole contract: the interleaved kernel is the same
        per-lane float32 program behind a different address map, so
        its solutions match the sequential cell *bitwise*."""
        from repro.kernels import run_kernel
        systems = generate("diagonally_dominant", 6, 64, seed=3)
        for layout_pair in [("sequential", "interleaved")]:
            xs, _ = run_kernel("thomas", systems, layout=layout_pair[0])
            xi, _ = run_kernel("thomas", systems, layout=layout_pair[1])
            np.testing.assert_array_equal(xs, xi)
        # and both cells pass the differential budget independently
        for lay in ("global", "interleaved"):
            cell = verify_cell(CellSpec("sim", "thomas", lay,
                                        "diagonally_dominant", 64, 6, 3))
            assert cell.status == "pass", cell.message

    def test_thomas_is_the_only_aware_solver_today(self):
        assert {name for name, entry in KERNELS.items()
                if "interleaved" in entry.layouts} == {"thomas"}
