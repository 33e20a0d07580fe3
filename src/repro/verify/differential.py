"""The differential harness: every solver x layout x class vs the oracle.

One *cell* of the verification grid fixes an engine (``numpy`` -- the
batched functional solvers behind :func:`repro.solve`; ``sim`` -- the
instrumented kernels on the simulated device), a solver, a memory
layout (``rows``, cuSPARSE-style ``interleaved`` and ``strided`` for
the numpy engine; the paper's five-array ``global`` layout for the
sim engine), a matrix class and a size.  The harness generates a
seeded batch, solves it, solves the same batch with the float64
pivoting-GE oracle, and asserts the cell's §5.4-derived budget
(:mod:`repro.verify.budgets`).  A sim cell runs as a raw traced
launch of its :class:`~repro.kernels.api.LaunchPlan` and also fails
when the recorded ledger differs from the estimator memo's for that
plan (the memo's data-independence contract, on the cell's own draw).

The grid is generated from the registries
(:data:`repro.solvers.api.SOLVERS`, :data:`repro.kernels.api.KERNELS`,
which also lists each kernel's layouts), so a newly
registered solver is *automatically* under contract -- the test suite
is generated by the contract instead of hand-enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpusim import ledgers_equal
from repro.gpusim.estimator import characterize
from repro.kernels.api import KERNELS, execute, plan_launch
from repro.solvers import layout as _layout
from repro.solvers.api import SOLVERS, solve
from repro.solvers.systems import TridiagonalSystems
from repro.telemetry.metrics import COST_RESIDUAL, VERIFY_CELLS, emit

from .budgets import Budget, budget_for
from .generators import VERIFY_CLASSES, generate
from .oracle import OracleComparison, compare_to_oracle

NUMPY_LAYOUTS = ("rows", "interleaved", "strided")

#: Sim-engine layouts.  ``global`` is the paper's sequential
#: five-array layout; kernels whose table entry takes the interleaved
#: layout are additionally under contract in that arrangement (same
#: values, coalesced schedule), making layout a real axis of the sim
#: grid.
SIM_LAYOUTS = ("global", "interleaved")

#: Default grid sizes: one mid-size and the paper's flagship 512.
DEFAULT_SIZES = (64, 512)


@dataclass(frozen=True)
class CellSpec:
    """Coordinates of one verification cell."""

    engine: str          # "numpy" | "sim" | "app"
    solver: str
    layout: str
    matrix_class: str
    n: int
    num_systems: int
    seed: int

    def label(self) -> str:
        return (f"{self.engine}:{self.solver}/{self.layout}/"
                f"{self.matrix_class}/n={self.n}")


@dataclass
class CellResult:
    """Outcome of one cell: distances, budget, verdict."""

    spec: CellSpec
    status: str          # pass | overflow_ok | recorded | skipped | fail
    budget: Budget
    rel_residual_max: float = float("nan")
    ulp_worst: float = float("nan")
    overflow_fraction: float = 0.0
    oracle_residual_max: float = float("nan")
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {
            "engine": self.spec.engine, "solver": self.spec.solver,
            "layout": self.spec.layout,
            "matrix_class": self.spec.matrix_class, "n": self.spec.n,
            "num_systems": self.spec.num_systems, "seed": self.spec.seed,
            "status": self.status, "budget": self.budget.to_dict(),
            "rel_residual_max": _jsonf(self.rel_residual_max),
            "ulp_worst": _jsonf(self.ulp_worst),
            "overflow_fraction": self.overflow_fraction,
            "oracle_residual_max": _jsonf(self.oracle_residual_max),
            "message": self.message,
        }


def _jsonf(v: float):
    v = float(v)
    if np.isnan(v):
        return None
    if np.isinf(v):
        return "inf"
    return v


# ----------------------------------------------------------------------
# Running one cell
# ----------------------------------------------------------------------

def _run_numpy(solver: str, lay: str, s: TridiagonalSystems) -> np.ndarray:
    if lay == "rows":
        return np.atleast_2d(solve(s.a, s.b, s.c, s.d, method=solver))
    if lay == "interleaved":
        x = _layout.gtsv_interleaved_batch(
            _layout.interleave(s.a), _layout.interleave(s.b),
            _layout.interleave(s.c), _layout.interleave(s.d),
            s.num_systems, method=solver)
        return _layout.deinterleave(x, s.num_systems)
    if lay == "strided":
        stride = s.n + 3    # deliberately non-trivial padding
        flat = [_layout.to_strided(arr, stride)
                for arr in (s.a, s.b, s.c, s.d)]
        x = _layout.gtsv_strided_batch(*flat, s.n, s.num_systems, stride,
                                       method=solver)
        return _layout.from_strided(x, s.num_systems, s.n, stride)
    raise ValueError(f"unknown layout {lay!r}")


def applicable(spec: CellSpec) -> str | None:
    """None when the cell can run; otherwise the skip reason."""
    if spec.engine == "sim":
        if spec.solver in ("cr_split", "pcr_pingpong", "rd_full") \
                and spec.n > 256:
            # Double-buffered / split / 9-entry storage costs ~2x the
            # in-place footprint and exceeds GT200 shared memory above
            # n=256 -- an architectural limit, not a defect (paper §4).
            return f"{spec.solver} exceeds shared memory above n=256"
        if spec.solver in ("cr_pcr", "cr_rd") and spec.n < 4:
            return "hybrid needs n >= 4"
        entry = KERNELS.get(spec.solver)
        if entry is not None \
                and _sim_layout(spec.layout) not in entry.layouts:
            return (f"{spec.solver} stages through shared memory and "
                    f"reads only the sequential layout")
    return None


def verify_cell(spec: CellSpec,
                systems: TridiagonalSystems | None = None) -> CellResult:
    """Run one cell of the grid and judge it against its budget.

    ``systems`` overrides the generated batch (the fuzzer's shrinking
    passes hand-crafted batches through the same judgment path).
    """
    budget = budget_for(spec.solver, spec.matrix_class)
    skip = applicable(spec)
    if skip is not None:
        return _record(CellResult(spec, "skipped", budget, message=skip))
    if systems is None:
        systems = generate(spec.matrix_class, spec.num_systems, spec.n,
                           seed=spec.seed)
    drift: list[str] = []
    try:
        if spec.engine == "numpy":
            x = _run_numpy(spec.solver, spec.layout, systems)
        elif spec.engine == "sim":
            x, traced, drift = _run_sim(spec, systems)
            _record_cost_residual(spec, traced)
        else:
            raise ValueError(f"unknown engine {spec.engine!r}")
    except Exception as exc:   # a crash is always a contract violation
        return _record(CellResult(
            spec, "fail", budget,
            message=f"solver raised {type(exc).__name__}: {exc}"))
    if drift:
        return _record(CellResult(
            spec, "fail", budget,
            message="ledger differs from the estimator memo: "
                    + "; ".join(drift)))
    cmp_ = compare_to_oracle(systems, x)
    return _record(judge(spec, budget, cmp_))


def _run_sim(spec: CellSpec, systems: TridiagonalSystems):
    """Solve a sim cell with a raw traced launch of its plan.

    Returns ``(x, launch, drift)``: the solution (bitwise the planned
    launch's), the launch, and the diff of its recorded ledger against
    the estimator memo's entry for the same plan -- the
    data-independence contract the memo rests on, checked on this
    cell's draw.
    """
    plan = plan_launch(spec.solver, systems.n, systems.num_systems,
                       layout=_sim_layout(spec.layout))
    gmem = plan.load(systems)
    traced = execute(plan, gmem)
    drift = ledgers_equal(traced.ledger, characterize(plan).ledger)
    return gmem.solution()[:systems.num_systems], traced, drift


def _sim_layout(layout: str) -> str:
    """Kernel layout of a sim-cell layout (``global`` is the sequential
    one)."""
    return "interleaved" if layout == "interleaved" else "sequential"


def _record_cost_residual(spec: CellSpec, traced) -> None:
    """Pair the realized modeled cost of a sim cell with the
    scheduler-style estimate for its shape, feeding the per-(solver,
    layout, n) ``estimator.cost_residual`` calibration histogram.
    No-op without an active telemetry collector (the estimate prices
    the estimator's memoized block ledger; nothing is simulated)."""
    from repro import telemetry
    if not telemetry.enabled():
        return
    from repro.gpusim.estimator import estimate_ms
    from repro.gpusim.gt200 import gt200_cost_model
    try:
        estimate = estimate_ms(spec.solver, spec.n, spec.num_systems,
                               layout=_sim_layout(spec.layout))
        actual = gt200_cost_model().report(traced).total_ms
    except Exception:      # estimation must never fail a verify cell
        return
    if estimate > 0:
        emit(COST_RESIDUAL, (actual - estimate) / estimate,
             solver=spec.solver, layout=spec.layout, n=spec.n)


def judge(spec: CellSpec, budget: Budget,
          cmp_: OracleComparison) -> CellResult:
    """Apply a budget to an oracle comparison."""
    out = CellResult(spec, "pass", budget,
                     rel_residual_max=cmp_.rel_residual_max,
                     ulp_worst=cmp_.ulp_worst,
                     overflow_fraction=cmp_.overflow_fraction,
                     oracle_residual_max=float(
                         np.max(cmp_.oracle_rel_residual)))
    if cmp_.overflow_fraction > 0 and not budget.allow_overflow:
        out.status = "fail"
        out.message = (f"{cmp_.overflow_fraction:.0%} of systems "
                       f"overflowed (not allowed for this cell)")
        return out
    if not budget.enforced:
        out.status = "recorded"
        return out
    # Residual contract applies to the finite systems.
    finite = np.isfinite(cmp_.rel_residual)
    if finite.any() and float(
            cmp_.rel_residual[finite].max()) > budget.rel_residual:
        out.status = "fail"
        out.message = (f"relative residual {cmp_.rel_residual_max:.3e} "
                       f"exceeds budget {budget.rel_residual:.1e}")
        return out
    if (budget.max_ulps is not None and finite.any()
            and float(cmp_.ulp_max[finite].max()) > budget.max_ulps):
        out.status = "fail"
        out.message = (f"forward distance {out.ulp_worst:.3e} ULPs "
                       f"exceeds budget {budget.max_ulps:.1e}")
        return out
    if cmp_.overflow_fraction > 0:
        out.status = "overflow_ok"
    return out


def _record(cell: CellResult) -> CellResult:
    emit(VERIFY_CELLS, status=cell.status, solver=cell.spec.solver,
         matrix_class=cell.spec.matrix_class, engine=cell.spec.engine)
    return cell


def verify_solution(systems: TridiagonalSystems, x: np.ndarray, *,
                    solver: str, matrix_class: str = "diagonally_dominant",
                    label: str = "app") -> CellResult:
    """Judge an externally produced solution through the harness.

    The application end-to-end tests route their solves through this
    instead of ad-hoc tolerances: the same oracle, the same budgets.
    """
    spec = CellSpec("app", solver, label, matrix_class, systems.n,
                    systems.num_systems, seed=-1)
    budget = budget_for(solver, matrix_class)
    cmp_ = compare_to_oracle(systems, np.atleast_2d(np.asarray(x)))
    return _record(judge(spec, budget, cmp_))


# ----------------------------------------------------------------------
# The full grid
# ----------------------------------------------------------------------

@dataclass
class VerificationReport:
    """Every cell of one differential run."""

    cells: list[CellResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)

    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if not c.ok]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.cells:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {"ok": self.ok, "counts": self.counts(),
                "cells": [c.to_dict() for c in self.cells]}

    def summary(self) -> str:
        counts = self.counts()
        head = (f"differential verification: {len(self.cells)} cells -- "
                + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
        lines = [head]
        for c in self.failures():
            lines.append(f"  FAIL {c.spec.label()}: {c.message}")
        return "\n".join(lines)


def grid(sizes=DEFAULT_SIZES, num_systems: int = 4, seed: int = 0,
         engines=("numpy", "sim"), classes=None, solvers=None,
         layouts=NUMPY_LAYOUTS) -> list[CellSpec]:
    """Enumerate the cell grid from the live registries."""
    classes = list(VERIFY_CLASSES) if classes is None else list(classes)
    specs: list[CellSpec] = []
    for n in sizes:
        for klass in classes:
            if "numpy" in engines:
                names = list(SOLVERS) if solvers is None else [
                    s for s in solvers if s in SOLVERS]
                for s in names:
                    for lay in layouts:
                        specs.append(CellSpec("numpy", s, lay, klass, n,
                                              num_systems, seed))
            if "sim" in engines:
                names = list(KERNELS) if solvers is None else [
                    s for s in solvers if s in KERNELS]
                for s in names:
                    for lay in SIM_LAYOUTS:
                        if _sim_layout(lay) in KERNELS[s].layouts:
                            specs.append(CellSpec("sim", s, lay, klass, n,
                                                  num_systems, seed))
    return specs


def run_differential(sizes=DEFAULT_SIZES, num_systems: int = 4,
                     seed: int = 0, engines=("numpy", "sim"),
                     classes=None, solvers=None,
                     layouts=NUMPY_LAYOUTS,
                     progress=None) -> VerificationReport:
    """Run the whole grid; returns the per-cell report.

    ``progress`` is an optional callable invoked with each finished
    :class:`CellResult` (the CLI uses it for live output).
    """
    report = VerificationReport()
    for spec in grid(sizes=sizes, num_systems=num_systems, seed=seed,
                     engines=engines, classes=classes, solvers=solvers,
                     layouts=layouts):
        cell = verify_cell(spec)
        report.cells.append(cell)
        if progress is not None:
            progress(cell)
    return report


def golden_table(seed: int = 2026, n: int = 512, num_systems: int = 8
                 ) -> dict:
    """The §5.4 residual table: every solver x class at the paper's
    flagship size, as plain JSON-ready data.

    This is what ``tests/data/sec54_residuals.json`` locks; regenerate
    with ``python -m repro verify --emit-golden <path>`` after an
    intentional accuracy change.
    """
    rows = {}
    for klass in VERIFY_CLASSES:
        systems = generate(klass, num_systems, n, seed=seed)
        from .oracle import oracle_solve
        x_oracle = oracle_solve(systems)
        for solver in SOLVERS:
            spec = CellSpec("numpy", solver, "rows", klass, n,
                            num_systems, seed)
            budget = budget_for(solver, klass)
            try:
                x = _run_numpy(solver, "rows", systems)
            except Exception as exc:
                rows[f"{solver}|{klass}"] = {"status": "error",
                                             "error": str(exc)}
                continue
            cmp_ = compare_to_oracle(systems, x, x_oracle)
            cell = judge(spec, budget, cmp_)
            finite = cmp_.rel_residual[np.isfinite(cmp_.rel_residual)]
            rows[f"{solver}|{klass}"] = {
                "status": cell.status,
                "median_rel_residual": _sig(np.median(finite))
                if finite.size else None,
                "max_rel_residual": _sig(finite.max())
                if finite.size else None,
                "overflow_fraction": float(cmp_.overflow_fraction),
            }
    return {"version": 1, "seed": seed, "n": n,
            "num_systems": num_systems, "rows": rows}


def _sig(v, digits: int = 6) -> float:
    return float(f"{float(v):.{digits}e}")
