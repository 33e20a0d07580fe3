"""Differential harness: grid enumeration, judging, skip logic."""

import numpy as np
import pytest

from repro import telemetry
from repro.numerics.generators import diagonally_dominant_fluid
from repro.verify import run_differential, verify_cell, verify_solution
from repro.verify.budgets import budget_for
from repro.verify.differential import (NUMPY_LAYOUTS, SIM_KERNELS, CellSpec,
                                       applicable, grid, judge)
from repro.verify.oracle import compare_to_oracle, oracle_solve

pytestmark = pytest.mark.verify


def spec(engine="numpy", solver="cr", layout="rows",
         klass="diagonally_dominant", n=16, num_systems=3, seed=0):
    return CellSpec(engine, solver, layout, klass, n, num_systems, seed)


def test_small_numpy_grid_is_green():
    report = run_differential(sizes=(16,), num_systems=3, seed=0,
                              engines=("numpy",),
                              classes=("diagonally_dominant",
                                       "close_values"),
                              solvers=("gep", "cr", "rd"))
    assert report.ok, report.summary()
    # 3 solvers x 3 layouts x 2 classes at one size.
    assert len(report.cells) == 18
    assert report.counts().get("pass", 0) > 0


def test_small_sim_grid_is_green():
    report = run_differential(sizes=(16,), num_systems=2, seed=0,
                              engines=("sim",),
                              classes=("diagonally_dominant",),
                              solvers=("cr", "pcr"))
    assert report.ok, report.summary()
    assert {c.spec.engine for c in report.cells} == {"sim"}


@pytest.mark.parametrize("layout", NUMPY_LAYOUTS)
def test_every_layout_matches_the_oracle(layout):
    cell = verify_cell(spec(solver="cr_pcr", layout=layout, n=32))
    assert cell.status == "pass", cell.message
    assert cell.rel_residual_max < 5e-3


@pytest.mark.parametrize("solver", ["cr_split", "pcr_pingpong", "rd_full"])
def test_oversized_shared_footprints_are_architectural_skips(solver):
    s = spec(engine="sim", solver=solver, layout="global", n=512)
    assert applicable(s) is not None
    cell = verify_cell(s)
    assert cell.status == "skipped"
    assert "shared memory" in cell.message
    # The same kernels run fine at n <= 256.
    assert applicable(spec(engine="sim", solver=solver,
                           layout="global", n=256)) is None


def test_crash_is_a_contract_violation():
    cell = verify_cell(spec(layout="bogus"))
    assert cell.status == "fail"
    assert "solver raised" in cell.message


def test_judge_rejects_unsanctioned_overflow():
    s = diagonally_dominant_fluid(4, 16, seed=5)
    x = oracle_solve(s).astype(np.float32)
    x[0] = np.nan
    sp = spec(solver="cr", num_systems=4)
    cell = judge(sp, budget_for("cr", "diagonally_dominant"),
                 compare_to_oracle(s, x))
    assert cell.status == "fail"
    assert "overflowed" in cell.message


def test_judge_tolerates_rd_overflow():
    s = diagonally_dominant_fluid(4, 16, seed=5)
    x = oracle_solve(s).astype(np.float32)
    x[0] = np.inf
    sp = spec(solver="rd", num_systems=4)
    cell = judge(sp, budget_for("rd", "diagonally_dominant"),
                 compare_to_oracle(s, x))
    assert cell.ok
    assert cell.status == "recorded"     # no contract on this cell


def test_grid_enumerates_from_the_live_registries():
    specs = grid(sizes=(8,), num_systems=1, seed=0)
    solvers = {s.solver for s in specs if s.engine == "sim"}
    assert solvers == set(SIM_KERNELS)
    layouts = {s.layout for s in specs if s.engine == "numpy"}
    assert layouts == set(NUMPY_LAYOUTS)


def test_verify_solution_judges_external_solves():
    s = diagonally_dominant_fluid(4, 32, seed=9)
    good = verify_solution(s, oracle_solve(s), solver="thomas")
    assert good.status == "pass"
    bad = verify_solution(s, np.zeros((4, 32)), solver="thomas")
    assert bad.status == "fail"


def test_cells_feed_the_telemetry_counter():
    with telemetry.collect() as col:
        verify_cell(spec(solver="gep", n=8))
    counter = col.metrics.counter("verify.cells")
    assert counter.value(status="pass", solver="gep",
                         matrix_class="diagonally_dominant",
                         engine="numpy") == 1


def test_report_to_dict_is_json_ready():
    import json
    report = run_differential(sizes=(8,), num_systems=1, seed=0,
                              engines=("numpy",),
                              classes=("diagonally_dominant",),
                              solvers=("gep",))
    json.dumps(report.to_dict())    # must not raise on inf/nan
