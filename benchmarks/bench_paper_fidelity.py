"""Paper-fidelity ratchet: the model against every number in
:mod:`repro.paper` it predicts -- the Fig 6 totals, the phase
equations of Figs 8/11/13/15/16 (as the calibration fits them) and
their step averages, the Figs 10/12/14 resource splits, the Fig 7
speedups, the Fig 9 penalties, the Fig 17 best switch points and the
§1 gains.  Each records the model value and its |relative error|,
rounded to 4 decimals so float noise cannot trip the gate.

Every run gates against ``results/paper_fidelity.json``: no error may
grow past its committed value (``--update`` records an improvement;
see ``results/README.md``).  Numbers come from
:func:`repro.report.report_data` where the report computes them, and
otherwise from the same ``modeled_grid_timing`` reports.
"""

from __future__ import annotations

import sys

from _harness import gate

from bench_fig7_cpu_comparison import best_gpu

from repro import paper
from repro.analysis.cpumodel import cpu_times, speedup
from repro.analysis.timing import modeled_grid_timing
from repro.gpusim.calibrate import phase_equations
from repro.report import report_data


def _number(model, published) -> dict:
    return {"paper": published, "model": round(model, 4),
            "error": round(abs(model - published) / published, 4)}


def measure() -> dict:
    data = report_data()
    totals = {name: v["model_ms"]
              for name, v in data["totals_512x512"]["solvers"].items()}
    out = {f"fig6.{name}": _number(totals[name], published)
           for name, published in paper.TOTAL_MS.items()}
    for name in paper.PHASE_MS:
        rep = modeled_grid_timing(
            name, paper.N, paper.NUM_SYSTEMS,
            intermediate_size=paper.BEST_M.get(name)).report
        for phases, published in phase_equations(name):
            out[f"phase.{name}.{'+'.join(phases)}"] = _number(
                sum(rep.phase_ms(p) for p in phases), published)
        for phase, published in paper.STEP_AVG_MS[name].items():
            steps = rep.steps_ms(phase)
            out[f"step_avg.{name}.{phase}"] = _number(
                sum(steps) / len(steps), published)
        for resource, published in paper.RESOURCE_MS.get(name, {}).items():
            out[f"resource.{name}.{resource}"] = _number(
                getattr(rep, f"{resource}_ms"), published)
    for S, n in paper.SIZES:
        gpu = best_gpu(n, S)[1]
        cpu_ms = cpu_times(S, n).best()[1]
        out[f"fig7.{n}"] = _number(speedup(gpu.solver_ms, cpu_ms),
                                   paper.SPEEDUP[n])
        out[f"fig7_with_transfer.{n}"] = _number(
            speedup(gpu.total_ms, cpu_ms), paper.SPEEDUP_WITH_TRANSFER[n])
    out["lapack_speedup"] = _number(
        speedup(min(totals.values()), cpu_times(paper.NUM_SYSTEMS,
                                                paper.N).gep_ms),
        paper.LAPACK_SPEEDUP)
    for c in data["fig9_conflicts"]:
        out[f"fig9.step{c['step']}"] = _number(c["model_penalty"],
                                               c["paper_penalty"])
    for inner, sp in data["switch_points"].items():
        out[f"fig17.cr_{inner}"] = _number(sp["best_m"], sp["paper_best_m"])
    for (hybrid, base), published in paper.GAIN.items():
        out[f"gain.{hybrid}_vs_{base}"] = _number(
            1 - totals[hybrid] / totals[base], published)
    return out


#: No |relative error| may grow past its committed value.
BOUNDS = {"error": ("max", 1.0)}


def main(argv=None) -> int:
    return gate("paper_fidelity", "numbers", measure, argv, bounds=BOUNDS)


def test_paper_fidelity_baseline(benchmark):
    assert main([]) == 0
    benchmark(measure)


if __name__ == "__main__":
    sys.exit(main())
