"""One-stop modeled-timing harness used by benchmarks and examples.

Wraps kernel execution + cost-model evaluation into a single call and
provides the end-to-end (solver + PCIe transfer) composition of the
paper's Fig 6 right / Fig 7 right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.gpusim import (GTX280, CostModel, DeviceSpec, LaunchResult,
                          PCIeModel, TimingReport, gt200_cost_model)
from repro.kernels.api import run_kernel
from repro.solvers.systems import TridiagonalSystems


@dataclass
class SolverTiming:
    """Solution plus modeled timing of one solver run."""

    name: str
    x: np.ndarray
    launch: LaunchResult
    report: TimingReport
    transfer_ms: float

    @property
    def solver_ms(self) -> float:
        return self.report.total_ms

    @property
    def total_ms(self) -> float:
        """End-to-end including CPU-GPU transfer (Fig 6 right)."""
        return self.solver_ms + self.transfer_ms


def timed_solve(name: str, systems: TridiagonalSystems, *,
                intermediate_size: int | None = None,
                device: DeviceSpec = GTX280,
                cost_model: CostModel | None = None,
                pcie: PCIeModel | None = None,
                layout: str | None = None) -> SolverTiming:
    """Run kernel ``name`` on ``systems`` and model its GTX 280 timing."""
    cm = cost_model or gt200_cost_model()
    pcie = pcie or PCIeModel()
    with telemetry.span("timing.timed_solve", solver=name, n=systems.n,
                        num_systems=systems.num_systems) as sp:
        x, launch = run_kernel(name, systems,
                               intermediate_size=intermediate_size,
                               device=device, layout=layout)
        report = cm.report(launch)
        transfer = pcie.solver_roundtrip_ms(systems.num_systems, systems.n)
        sp.set_attr("modeled_ms", report.total_ms)
        sp.set_attr("transfer_ms", transfer)
    return SolverTiming(name=name, x=x, launch=launch, report=report,
                        transfer_ms=transfer)


def modeled_grid_timing(name: str, n: int, num_systems: int, *,
                        intermediate_size: int | None = None,
                        device: DeviceSpec = GTX280,
                        cost_model: CostModel | None = None,
                        pcie: PCIeModel | None = None,
                        seed: int = 0,
                        sim_blocks: int = 2,
                        layout: str | None = None) -> SolverTiming:
    """Model a ``num_systems x n`` grid from a small simulation.

    The timing report is the analytic estimate for the requested grid
    (:func:`repro.gpusim.estimator.estimate_report`: per-block counters
    are identical across blocks, so the memoized block ledger is
    rescaled via the occupancy/wave rule).  ``x`` and ``launch`` come
    from a functional run on ``sim_blocks`` systems -- or, for the
    per-thread ``"thomas"`` kernel, which packs many systems into each
    block, on one full block tile of ``min(num_systems, max_threads)``
    systems.  Used by the figure benchmarks, where simulating 512 real
    blocks would only burn time.
    """
    from repro.gpusim.estimator import estimate_report
    from repro.kernels.api import plan_launch
    from repro.numerics.generators import diagonally_dominant_fluid

    pcie = pcie or PCIeModel()
    sim = (plan_launch(name, n, num_systems, device=device,
                       layout=layout).systems_per_block
           if name == "thomas" else sim_blocks)
    systems = diagonally_dominant_fluid(sim, n, seed=seed)
    with telemetry.span("timing.modeled_grid", solver=name, n=n,
                        num_systems=num_systems,
                        sim_blocks=sim_blocks) as sp:
        x, launch = run_kernel(name, systems,
                               intermediate_size=intermediate_size,
                               device=device, layout=layout)
        rep = estimate_report(name, n, num_systems,
                              intermediate_size=intermediate_size,
                              device=device, cost_model=cost_model,
                              layout=layout or "sequential")
        transfer = pcie.solver_roundtrip_ms(num_systems, n)
        sp.set_attr("modeled_ms", rep.total_ms)
        sp.set_attr("transfer_ms", transfer)
    return SolverTiming(name=name, x=x, launch=launch, report=rep,
                        transfer_ms=transfer)


def compare_solvers(systems: TridiagonalSystems, *,
                    names=("cr", "pcr", "rd", "cr_pcr", "cr_rd"),
                    intermediate_sizes: dict | None = None,
                    device: DeviceSpec = GTX280,
                    cost_model: CostModel | None = None
                    ) -> dict[str, SolverTiming]:
    """Model all requested solvers on the same batch (Fig 6 data)."""
    ms = intermediate_sizes or {}
    return {name: timed_solve(name, systems,
                              intermediate_size=ms.get(name),
                              device=device, cost_model=cost_model)
            for name in names}


def best_gpu_ms(systems: TridiagonalSystems, *, include_transfer=False,
                **kw) -> tuple[str, float]:
    """Fastest modeled GPU solver for a batch (Fig 7's "Best GPU")."""
    results = compare_solvers(systems, **kw)
    key = ((lambda t: t.total_ms) if include_transfer
           else (lambda t: t.solver_ms))
    name = min(results, key=lambda n: key(results[n]))
    return name, key(results[name])
