"""Figure 16: CR+RD phase breakdown at 512x512, at the paper's switch
point ``repro.paper.BEST_M["cr_rd"]``.

Paper: ``repro.paper.PHASE_MS["cr_rd"]`` (CR backward substitution is
the sum of ``repro.paper.CR_RD_BACKWARD_SLICES_MS``), the RD scan step
average ``repro.paper.STEP_AVG_MS["cr_rd"]`` (7 steps) and the total
``repro.paper.TOTAL_MS["cr_rd"]``.
"""

from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet

from bench_fig8_cr_phases import build_table


def test_fig16_crrd_phases(benchmark):
    emit("fig16_crrd_phases", *build_table("cr_rd"))
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("cr_rd", s))


if __name__ == "__main__":
    emit("fig16_crrd_phases", *build_table("cr_rd"))
