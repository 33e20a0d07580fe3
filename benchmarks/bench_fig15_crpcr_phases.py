"""Figure 15: CR+PCR (m = 256) phase breakdown at 512x512.

Paper: global 0.104 (25 %), CR forward 0.060 (14 %), copy 0.009 (2 %),
PCR forward 0.200 (47 %, 7 steps, 0.029 avg), PCR solve-2 0.023 (6 %),
CR backward 0.026 (6 %); total 0.422 ms.
"""

from repro.analysis.timing import modeled_grid_timing
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table

PAPER = {
    "global_memory_access": 0.104,
    "cr_forward_reduction": 0.060,
    "copy_intermediate": 0.009,
    "inner_forward_reduction": 0.200,
    "inner_solve_two": 0.023,
    "cr_backward_substitution": 0.026,
}


def build_table(name="cr_pcr", m=256, paper=PAPER, paper_total=0.422,
                inner_phase="inner_forward_reduction",
                inner_avg_paper=0.029) -> tuple[str, list]:
    with quiet():
        t = modeled_grid_timing(name, 512, 512, intermediate_size=m)
    total = t.solver_ms
    merged_global = sum(t.report.phases[p].total_ms
                        for p in ("global_load", "global_store"))
    rows = [["global_memory_access", merged_global, merged_global / total,
             paper["global_memory_access"]]]
    for pname, target in paper.items():
        if pname == "global_memory_access":
            continue
        ms = t.report.phases[pname].total_ms
        rows.append([pname, ms, ms / total, target])
    rows.append(["TOTAL", total, 1.0, paper_total])
    data = [{"solver": name, "num_systems": 512, "n": 512,
             "intermediate_size": m, "phase": pname,
             "modeled_ms": ms, "fraction": frac}
            for pname, ms, frac, _paper in rows]
    inner = t.report.steps_ms(inner_phase)
    extra = table(["phase", "steps", "avg_ms(model)", "avg_ms(paper)"], [
        [inner_phase, len(inner), sum(inner) / len(inner),
         inner_avg_paper]])
    return (table(["phase", "model_ms", "fraction", "paper_ms"], rows)
            + "\n\n" + extra, data)


def test_fig15_crpcr_phases(benchmark):
    text, data = build_table()
    emit("fig15_crpcr_phases", text, data=data)
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("cr_pcr", s, intermediate_size=256))


if __name__ == "__main__":
    text, data = build_table()
    emit("fig15_crpcr_phases", text, data=data)
