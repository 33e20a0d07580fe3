"""Figure 13: RD phase breakdown at 512x512.

Paper: global access + matrix setup 0.109 ms (18 %), scan 0.484 ms
(79 %, 9 steps, 0.054 avg), solution evaluation 0.019 ms (3 %);
total 0.612 ms.  (The paper books RD's global writes in the first
slice; our kernel stores results during evaluation, so compare the
merged global+setup+eval against 0.128.)
"""

from repro.analysis.timing import modeled_grid_timing
from repro.kernels.api import run_kernel
from repro.numerics.generators import close_values

from _harness import emit, quiet, table


def build_table() -> str:
    with quiet():
        t = modeled_grid_timing("rd", 512, 512)
    total = t.solver_ms
    rows = []
    for name, paper in (("global_load_setup", 0.109), ("scan", 0.484),
                        ("solution_evaluation", 0.019)):
        ms = t.report.phases[name].total_ms
        rows.append([name, ms, ms / total, paper])
    rows.append(["TOTAL", total, 1.0, 0.612])
    scan = t.report.steps_ms("scan")
    extra = table(["phase", "steps", "avg_ms(model)", "avg_ms(paper)"], [
        ["scan", len(scan), sum(scan) / len(scan), 0.054]])
    return (table(["phase", "model_ms", "fraction", "paper_ms"], rows)
            + "\n\n" + extra)


def test_fig13_rd_phases(benchmark):
    emit("fig13_rd_phases", build_table())
    with quiet():
        s = close_values(2, 512, seed=0)
        benchmark(lambda: run_kernel("rd", s))


if __name__ == "__main__":
    emit("fig13_rd_phases", build_table())
