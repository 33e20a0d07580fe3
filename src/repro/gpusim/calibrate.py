"""Fit the GT200 cost-model coefficients to the paper's published data.

The linear cost model (see :mod:`repro.gpusim.costmodel`) makes every
phase time a dot product of architectural counters and non-negative
coefficients.  This module assembles one equation per published number
-- the per-phase timings of Figs 8/11/13/15/16 and the
global/shared/compute resource splits of Figs 10/12/14, all for the
512x512 problem size -- and solves the non-negative least-squares
problem for the coefficient vector.

Usage::

    python -m repro.gpusim.calibrate          # fit, report, print params

The resulting constants are checked into :mod:`repro.gpusim.gt200`.
Only 512x512 data enters the fit; every other problem size, switch
point, and kernel variant reported by the benchmarks is a prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro import paper

from .costmodel import CostModelParams
from .counters import PhaseCounters
from .device import GTX280

#: Counter fields used as fit features, in coefficient order.
FEATURES = ("shared_cycles", "latency_units", "global_transactions",
            "global_words", "warp_instructions", "divs", "syncs", "steps")

#: Resource-split component -> which features belong to it.
RESOURCE_FEATURES = {
    "global": ("global_transactions", "global_words"),
    "shared": ("shared_cycles", "latency_units"),
    "compute": ("warp_instructions", "divs", "syncs", "steps"),
}

#: Kernel phases behind a paper slice of another name: the paper
#: publishes one "global memory access" slice.
SLICE_PHASES = {"global_memory_access": ("global_load", "global_store")}

#: Slice groups fitted as one equation each, where a solver's slices
#: are not one equation apiece.  Fig 13 books all of RD's global
#: traffic (including the final solution store) into its first slice
#: ("global memory access and matrix setup", and Fig 14's global total
#: equals that slice), while our kernel's evaluation phase contains the
#: store.
JOINED_SLICES = {"rd": [("global_load_setup", "solution_evaluation"),
                        ("scan",)]}


def _feature_row(pc: PhaseCounters, restrict=None) -> np.ndarray:
    row = np.array([getattr(pc, f) for f in FEATURES], dtype=np.float64)
    if restrict is not None:
        keep = [i for i, f in enumerate(FEATURES) if f in restrict]
        mask = np.zeros_like(row)
        mask[keep] = 1.0
        row = row * mask
    return row


def _calibration_traces():
    """Simulate all five kernels at 512x512 and return their ledgers
    plus grid scale factors.  Counters are per block and identical
    across blocks, so two blocks suffice for the simulation."""
    import warnings

    from repro.kernels.api import run_kernel
    from repro.numerics.generators import diagonally_dominant_fluid

    systems = diagonally_dominant_fluid(2, paper.N, seed=0,
                                        dtype=np.float32)
    out = {}
    from .costmodel import CostModel
    probe = CostModel(CostModelParams(*([1.0] * 8)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in paper.PHASE_MS:
            _x, res = run_kernel(name, systems,
                                 intermediate_size=paper.BEST_M.get(name))
            scale, _conc, _waves = probe.grid_scale(
                GTX280, paper.NUM_SYSTEMS, res.shared_bytes,
                res.threads_per_block)
            out[name] = (res.ledger, scale)
    return out


def phase_equations(name: str):
    """``(kernel phases, published ms)`` of each phase equation of
    solver ``name``: one per slice of :data:`repro.paper.PHASE_MS`, in
    figure order, or one per :data:`JOINED_SLICES` group."""
    slices = paper.PHASE_MS[name]
    for group in JOINED_SLICES.get(name) or [(s,) for s in slices]:
        phases = sum((SLICE_PHASES.get(g, (g,)) for g in group), ())
        yield phases, sum(slices[g] for g in group)


@dataclass
class FitReport:
    params: CostModelParams
    rows: list  # (label, target_ms, fitted_ms)

    def max_relative_error(self) -> float:
        return max(abs(f - t) / t for (_l, t, f) in self.rows)

    def __str__(self) -> str:
        lines = [f"{'equation':42s} {'paper ms':>9s} {'model ms':>9s} {'err':>7s}"]
        for label, target, fitted in self.rows:
            err = (fitted - target) / target
            lines.append(f"{label:42s} {target:9.3f} {fitted:9.3f} {err:+6.1%}")
        lines.append(f"max relative error: {self.max_relative_error():.1%}")
        return "\n".join(lines)


def fit(verbose: bool = False) -> FitReport:
    """Solve the NNLS calibration problem against the paper's numbers."""
    from scipy.optimize import nnls

    traces = _calibration_traces()
    rows_A, rows_b, labels = [], [], []

    def add(label, feature_row, target_ms, scale, weight=1.0):
        # target is grid-level ms; features are block-level counters.
        # time_ms = (features . theta[ns]) * scale * 1e-6
        rows_A.append(feature_row * scale * 1e-6 * weight)
        rows_b.append(target_ms * weight)
        labels.append((label, target_ms))

    for name in paper.PHASE_MS:
        ledger, scale = traces[name]
        for phases, target in phase_equations(name):
            pc = PhaseCounters()
            for p in phases:
                pc.merge(ledger.phases[p])
            weight = 2.0 if "global" in phases[0] else 1.0
            add(f"{name}:{'+'.join(phases)}", _feature_row(pc), target,
                scale, weight=weight)

    for name, split in paper.RESOURCE_MS.items():
        ledger, scale = traces[name]
        total = ledger.total()
        for resource, target in split.items():
            add(f"{name}:resource:{resource}",
                _feature_row(total, RESOURCE_FEATURES[resource]),
                target, scale)

    for name, target in paper.TOTAL_MS.items():
        ledger, scale = traces[name]
        add(f"{name}:total", _feature_row(ledger.total()), target, scale,
            weight=2.0)

    A = np.vstack(rows_A)
    b = np.array(rows_b)
    theta, _rnorm = nnls(A, b)

    # Undo row weights in the report: fitted_ms = (A @ theta) / weight
    # where weight = b_row / target.
    fitted = A @ theta
    rows = []
    for (label, target), f, brow in zip(labels, fitted, b):
        w = brow / target
        rows.append((label, target, float(f) / w))

    # The calibration kernels are perfectly coalesced, making words and
    # transactions collinear (words = 16 * transactions); NNLS splits
    # the weight arbitrarily between them.  Physically DRAM bandwidth
    # is consumed per 64-byte transaction, so fold the per-word weight
    # into the per-transaction coefficient -- identical cost for
    # coalesced kernels, and strided kernels (the global-only fallback,
    # the naive per-thread Thomas) correctly pay per segment.
    words_per_transaction = (GTX280.coalesce_segment_bytes
                             // GTX280.bank_width_bytes)
    params = CostModelParams(
        shared_cycle_ns=float(theta[0]),
        shared_latency_ns=float(theta[1]),
        global_transaction_ns=float(theta[2]
                                    + words_per_transaction * theta[3]),
        global_word_ns=0.0,
        warp_issue_ns=float(theta[4]),
        div_ns=float(theta[5]),
        sync_ns=float(theta[6]),
        step_ns=float(theta[7]),
    )
    report = FitReport(params=params, rows=rows)
    if verbose:
        print(report)
        print()
        print("Fitted CostModelParams:")
        for f, v in zip(FEATURES, theta):
            print(f"    {f:22s} -> {v:.6g} ns")
    return report


def main() -> None:
    report = fit(verbose=True)
    p = report.params
    print("\nPaste into repro/gpusim/gt200.py:")
    print("GT200_PARAMS = CostModelParams(")
    for f in fields(p):
        if f.name != "global_latency_ns":   # set by hand, see its comment
            print(f"    {f.name}={getattr(p, f.name):.6g},")
    print(")")


if __name__ == "__main__":
    main()
