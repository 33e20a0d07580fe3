"""Figure 7: best GPU solver vs the three CPU baselines, with the
speedup annotations.

Paper annotations: ``repro.paper.SPEEDUP`` (left, no transfer) and
``repro.paper.SPEEDUP_WITH_TRANSFER`` (right).  CPU times come from
the calibrated op-rate model (see repro.analysis.cpumodel); GPU times
from the calibrated GT200 model.
"""

from repro import paper
from repro.analysis.cpumodel import cpu_times, speedup
from repro.analysis.timing import modeled_grid_timing
from repro.solvers.api import SOLVERS
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import SOLVER_ORDER, emit, quiet, table


def best_gpu(n: int, S: int):
    best = None
    with quiet():
        for name in SOLVER_ORDER:
            t = modeled_grid_timing(name, n, S)
            if best is None or t.solver_ms < best[1].solver_ms:
                best = (name, t)
    return best


def build_table() -> str:
    rows = []
    for S, n in paper.SIZES:
        name, t = best_gpu(n, S)
        cpu = cpu_times(S, n)
        best_cpu_name, best_cpu_ms = cpu.best()
        rows.append([
            f"{S}x{n}", name, t.solver_ms, t.total_ms,
            cpu.ge_ms, cpu.mt_ms, cpu.gep_ms,
            f"{speedup(t.solver_ms, best_cpu_ms):.1f}x",
            f"{speedup(t.total_ms, best_cpu_ms):.1f}x",
            f"{speedup(t.solver_ms, cpu.gep_ms):.1f}x",
        ])
    return table(
        ["size", "best_gpu", "gpu_ms", "gpu+xfer_ms", "GE_ms", "MT_ms",
         "GEP_ms", "speedup", "speedup_xfer", "vs_LAPACK"],
        rows)


def test_fig7_cpu_comparison(benchmark):
    emit("fig7_cpu_comparison", build_table())
    # Wall-clock: the actual MT-analogue CPU solver on this machine.
    s = diagonally_dominant_fluid(512, 512, seed=0)
    benchmark(lambda: SOLVERS["thomas"](s))


if __name__ == "__main__":
    emit("fig7_cpu_comparison", build_table())
