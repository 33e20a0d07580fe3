"""Measured-cost layout autotuner: solver x layout, picked jointly.

The paper's evaluation fixes the sequential batch layout and compares
solvers; production batched libraries additionally choose a *layout*
(cuSPARSE ships both ``gtsv2StridedBatch`` and ``gtsvInterleavedBatch``
precisely because neither dominates).  The trade is batch-shaped:

* many small systems -> the per-thread Thomas kernel on the
  interleaved layout (coalesced, one thread per system, no
  shared-memory staging);
* one (or few) large systems -> the paper's fine-grained hybrids on
  the sequential layout (a block per system, shared-memory solve).

This module fits a small *calibration model* per device instead of
hard-coding that fold line.  For every candidate ``(method, layout)``
it compares the analytic cost ledger
(:func:`repro.gpusim.estimate_report`, no functional execution) against
a *measured* calibration sweep through
:func:`repro.analysis.timing.modeled_grid_timing` -- and fits one
least-squares gain per candidate plus per-term (global / shared /
compute) residuals.  On this simulator the analytic path is exact by
construction (the charge ledger is data-independent), so the fitted
gains are 1.0 and the residuals 0 (both sides price the same
memoized block ledger; the stub-block equivalence itself is pinned
against traced launches by ``tests/gpusim/test_estimator.py``).  On
real hardware the same harness would absorb systematic model error
into the gains.

:func:`choose_layout` then ranks the candidates by corrected predicted
cost for a given batch shape, with per-candidate infeasibility reasons
(power-of-two requirements, shared-memory overflow) preserved in the
ranking.  :func:`repro.solvers.api.solve` (``method="auto"`` with a
``device=``) and the serve scheduler's admission estimates consume
this to pick solver and layout jointly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim import (CostModel, DeviceSpec, GTX280, KernelError,
                          estimate_report, gt200_cost_model)

__all__ = ["CANDIDATES", "TERMS", "CalibrationPoint", "TermFit",
           "CandidateFit", "LayoutModel", "LayoutChoice",
           "fit_layout_model", "default_layout_model", "choose_layout",
           "clear_model_cache"]

#: The solver x layout pairs the autotuner arbitrates between: the
#: layout demo kernel in both layouts plus the paper's fine-grained
#: methods (sequential only -- they stage through shared memory).
CANDIDATES: tuple[tuple[str, str], ...] = (
    ("thomas", "interleaved"),
    ("thomas", "sequential"),
    ("pcr", "sequential"),
    ("cr_pcr", "sequential"),
)

#: Cost-model resource terms a fit reports residuals for.
TERMS = ("global", "shared", "compute")

#: Default calibration sweep: batch shapes spanning the fold line
#: (many-small through few-large).  Infeasible combinations are
#: skipped per candidate.
DEFAULT_CALIBRATION_GRID: tuple[tuple[int, int], ...] = (
    (256, 8), (64, 32), (16, 64), (4, 128), (2, 512),
)


def _term_ms(report, term: str) -> float:
    return sum(getattr(p, f"{term}_ms") for p in report.phases.values())


@dataclass
class TermFit:
    """Analytic vs measured milliseconds of one resource term."""

    term: str
    analytic_ms: float
    measured_ms: float

    @property
    def residual(self) -> float:
        """Relative (measured - analytic) / analytic; 0 when both 0."""
        if self.analytic_ms == 0.0:
            return 0.0 if self.measured_ms == 0.0 else float("inf")
        return (self.measured_ms - self.analytic_ms) / self.analytic_ms


@dataclass
class CalibrationPoint:
    """One measured sweep cell for one candidate."""

    num_systems: int
    n: int
    analytic_ms: float
    measured_ms: float
    terms: list[TermFit] = field(default_factory=list)

    @property
    def residual(self) -> float:
        if self.analytic_ms == 0.0:
            return 0.0 if self.measured_ms == 0.0 else float("inf")
        return (self.measured_ms - self.analytic_ms) / self.analytic_ms


@dataclass
class CandidateFit:
    """Fitted correction for one ``(method, layout)`` candidate."""

    method: str
    layout: str
    gain: float                       # measured ~= gain * analytic
    points: list[CalibrationPoint] = field(default_factory=list)

    @property
    def max_abs_residual(self) -> float:
        """Worst per-point relative residual of the raw analytic model."""
        return max((abs(p.residual) for p in self.points), default=0.0)

    def term_residuals(self) -> dict[str, float]:
        """Worst per-term relative residual across the sweep."""
        out: dict[str, float] = {}
        for term in TERMS:
            out[term] = max(
                (abs(tf.residual) for p in self.points for tf in p.terms
                 if tf.term == term), default=0.0)
        return out


@dataclass
class LayoutModel:
    """Per-device calibration: one :class:`CandidateFit` per candidate."""

    device_name: str
    fits: dict[tuple[str, str], CandidateFit] = field(default_factory=dict)

    def predict_ms(self, method: str, layout: str, num_systems: int,
                   n: int, *, device: DeviceSpec,
                   cost_model: CostModel | None = None) -> float:
        """Corrected predicted solver milliseconds for a batch shape.

        Raises :class:`KernelError` / :class:`ValueError` when the
        candidate cannot run this shape (callers record the reason).
        """
        fit = self.fits.get((method, layout))
        gain = fit.gain if fit is not None and fit.points else 1.0
        rep = estimate_report(method, n, num_systems, device=device,
                              cost_model=cost_model, layout=layout)
        return rep.total_ms * gain

    def summary(self) -> str:
        lines = [f"layout model [{self.device_name}]"]
        for (method, layout), fit in sorted(self.fits.items()):
            terms = ", ".join(f"{t}={r:.2e}"
                              for t, r in fit.term_residuals().items())
            lines.append(
                f"  {method}/{layout}: gain={fit.gain:.6f} over "
                f"{len(fit.points)} points, max|res|="
                f"{fit.max_abs_residual:.2e} ({terms})")
        return "\n".join(lines)


def fit_layout_model(device: DeviceSpec = GTX280, *,
                     calibration_grid=DEFAULT_CALIBRATION_GRID,
                     cost_model: CostModel | None = None) -> LayoutModel:
    """Fit the analytic-plus-empirical cost model for one device.

    For every candidate and every feasible ``(num_systems, n)`` sweep
    cell, pairs the analytic estimate with a measured functional
    simulation, then fits one least-squares gain through the origin
    (``measured ~= gain * analytic``) and records per-term residuals.
    """
    from repro.analysis.timing import modeled_grid_timing

    cm = cost_model or gt200_cost_model()
    model = LayoutModel(device_name=device.name)
    for method, layout in CANDIDATES:
        points: list[CalibrationPoint] = []
        for num_systems, n in calibration_grid:
            lay = layout if layout == "interleaved" else None
            try:
                analytic = estimate_report(method, n, num_systems,
                                           device=device, cost_model=cm,
                                           layout=layout)
                measured = modeled_grid_timing(method, n, num_systems,
                                               device=device, cost_model=cm,
                                               layout=lay).report
            except (KernelError, ValueError):
                continue           # infeasible sweep cell for this pair
            points.append(CalibrationPoint(
                num_systems=num_systems, n=n,
                analytic_ms=analytic.total_ms,
                measured_ms=measured.total_ms,
                terms=[TermFit(t, _term_ms(analytic, t),
                               _term_ms(measured, t)) for t in TERMS]))
        num = sum(p.measured_ms * p.analytic_ms for p in points)
        den = sum(p.analytic_ms * p.analytic_ms for p in points)
        gain = (num / den) if den > 0 else 1.0
        model.fits[(method, layout)] = CandidateFit(
            method=method, layout=layout, gain=gain, points=points)
    return model


#: device.name -> fitted model (the calibration sweep simulates real
#: kernels, so serve admission paths reuse one fit per device).
_MODEL_CACHE: dict[str, LayoutModel] = {}


def clear_model_cache() -> None:
    """Drop memoized per-device layout models (for tests)."""
    _MODEL_CACHE.clear()


def default_layout_model(device: DeviceSpec = GTX280) -> LayoutModel:
    """Memoized per-device fit of :func:`fit_layout_model`."""
    model = _MODEL_CACHE.get(device.name)
    if model is None:
        model = fit_layout_model(device)
        _MODEL_CACHE[device.name] = model
    return model


@dataclass
class RankedCandidate:
    """One candidate's predicted cost (or why it cannot run)."""

    method: str
    layout: str
    predicted_ms: float | None
    reason: str = ""


@dataclass
class LayoutChoice:
    """The autotuner's verdict for one batch shape."""

    method: str
    layout: str
    predicted_ms: float
    ranking: list[RankedCandidate] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"choose_layout -> {self.method}/{self.layout} "
                 f"({self.predicted_ms:.4f} ms)"]
        for r in self.ranking:
            cost = (f"{r.predicted_ms:.4f} ms" if r.predicted_ms is not None
                    else f"infeasible: {r.reason}")
            lines.append(f"  {r.method}/{r.layout}: {cost}")
        return "\n".join(lines)


def choose_layout(num_systems: int, n: int, *,
                  device: DeviceSpec = GTX280,
                  model: LayoutModel | None = None,
                  cost_model: CostModel | None = None) -> LayoutChoice:
    """Pick the cheapest feasible ``(method, layout)`` for a batch shape.

    Every candidate appears in the returned ranking; infeasible ones
    carry the reason (power-of-two requirement, shared-memory
    overflow) instead of a cost, so a placement decision is always
    explainable.
    """
    if num_systems < 1:
        raise ValueError(f"num_systems must be >= 1, got {num_systems}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    model = model or default_layout_model(device)
    ranking: list[RankedCandidate] = []
    for method, layout in CANDIDATES:
        try:
            ms = model.predict_ms(method, layout, num_systems, n,
                                  device=device, cost_model=cost_model)
            ranking.append(RankedCandidate(method, layout, ms))
        except (KernelError, ValueError) as exc:
            ranking.append(RankedCandidate(method, layout, None,
                                           reason=str(exc)))
    if all(r.predicted_ms is None for r in ranking):
        detail = "; ".join(f"{r.method}/{r.layout}: {r.reason}"
                           for r in ranking)
        raise ValueError(f"no feasible solver/layout candidate ({detail})")
    ranking.sort(key=lambda r: (r.predicted_ms is None,
                                r.predicted_ms or 0.0))
    best = ranking[0]
    return LayoutChoice(method=best.method, layout=best.layout,
                        predicted_ms=best.predicted_ms, ranking=ranking)
