"""Figure 11: PCR phase breakdown at 512x512.

Paper: global 0.106 ms (20 %), forward reduction 0.409 ms (76 %, 8
steps, 0.051 avg), solve-2 0.019 ms (4 %); total 0.534 ms.
"""

from repro.analysis.timing import modeled_grid_timing
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table

PAPER = {"global_memory_access": 0.106, "forward_reduction": 0.409,
         "solve_two": 0.019}


def build_table() -> str:
    with quiet():
        t = modeled_grid_timing("pcr", 512, 512)
    total = t.solver_ms
    merged_global = sum(t.report.phases[p].total_ms
                        for p in ("global_load", "global_store"))
    rows = [["global_memory_access", merged_global, merged_global / total,
             PAPER["global_memory_access"]]]
    for name in ("forward_reduction", "solve_two"):
        ms = t.report.phases[name].total_ms
        rows.append([name, ms, ms / total, PAPER[name]])
    rows.append(["TOTAL", total, 1.0, 0.534])
    fwd = t.report.steps_ms("forward_reduction")
    extra = table(["phase", "steps", "avg_ms(model)", "avg_ms(paper)"], [
        ["forward_reduction", len(fwd), sum(fwd) / len(fwd), 0.051]])
    return (table(["phase", "model_ms", "fraction", "paper_ms"], rows)
            + "\n\n" + extra)


def test_fig11_pcr_phases(benchmark):
    emit("fig11_pcr_phases", build_table())
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("pcr", s))


if __name__ == "__main__":
    emit("fig11_pcr_phases", build_table())
