"""Figure 16: CR+RD (m = 128) phase breakdown at 512x512.

Paper: global 0.104 (21 %), CR forward 0.039 (8 %), RD copy+setup
0.069 (14 %), RD scan 0.179 (37 %, 7 steps, 0.026 avg), RD evaluation
0.018 (4 %), CR backward 0.024 + 0.032 (12 %); total 0.488 ms.
"""

from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet

from bench_fig15_crpcr_phases import build_table

PAPER = {
    "global_memory_access": 0.104,
    "cr_forward_reduction": 0.039,
    "rd_copy_setup": 0.069,
    "rd_scan": 0.179,
    "rd_solution_evaluation": 0.018,
    "cr_backward_substitution": 0.056,
}


def test_fig16_crrd_phases(benchmark):
    text, data = build_table(name="cr_rd", m=128, paper=PAPER,
                             paper_total=0.488, inner_phase="rd_scan",
                             inner_avg_paper=0.026)
    emit("fig16_crrd_phases", text, data=data)
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("cr_rd", s, intermediate_size=128))


if __name__ == "__main__":
    text, data = build_table(name="cr_rd", m=128, paper=PAPER,
                             paper_total=0.488, inner_phase="rd_scan",
                             inner_avg_paper=0.026)
    emit("fig16_crrd_phases", text, data=data)
