"""Figure 8: CR phase breakdown at 512x512.

Paper: global 0.103 ms (10 %), forward reduction 0.624 ms (59 %, 8
steps, 0.078 avg), solve-2 0.033 ms (3 %), backward substitution
0.306 ms (29 %, 8 steps, 0.038 avg); total 1.066 ms.
"""

from repro.analysis.differential import phase_breakdown
from repro.analysis.timing import modeled_grid_timing
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table

PAPER = {"global_memory_access": 0.103, "forward_reduction": 0.624,
         "solve_two": 0.033, "backward_substitution": 0.306}


def build_table() -> tuple[str, list]:
    with quiet():
        t = modeled_grid_timing("cr", 512, 512)
    total = t.solver_ms
    rows = []
    merged_global = 0.0
    for name, pt in t.report.phases.items():
        if name in ("global_load", "global_store"):
            merged_global += pt.total_ms
            continue
        rows.append([name, pt.total_ms, pt.total_ms / total,
                     PAPER.get(name, float("nan"))])
    rows.insert(0, ["global_memory_access", merged_global,
                    merged_global / total, PAPER["global_memory_access"]])
    rows.append(["TOTAL", total, 1.0, 1.066])
    data = [{"solver": "cr", "num_systems": 512, "n": 512,
             "phase": name, "modeled_ms": ms, "fraction": frac}
            for name, ms, frac, _paper in rows]
    # Per-step averages, as the paper reports.
    fwd_steps = t.report.steps_ms("forward_reduction")
    bwd_steps = t.report.steps_ms("backward_substitution")
    extra = table(["phase", "steps", "avg_ms(model)", "avg_ms(paper)"], [
        ["forward_reduction", len(fwd_steps),
         sum(fwd_steps) / len(fwd_steps), 0.078],
        ["backward_substitution", len(bwd_steps),
         sum(bwd_steps) / len(bwd_steps), 0.038],
    ])
    return (table(["phase", "model_ms", "fraction", "paper_ms"], rows)
            + "\n\n" + extra, data)


def test_fig8_cr_phases(benchmark):
    text, data = build_table()
    emit("fig8_cr_phases", text, data=data)
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("cr", s))


if __name__ == "__main__":
    text, data = build_table()
    emit("fig8_cr_phases", text, data=data)
