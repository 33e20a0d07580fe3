"""Figure 15: CR+PCR phase breakdown at 512x512, at the paper's switch
point ``repro.paper.BEST_M["cr_pcr"]``.

Paper: ``repro.paper.PHASE_MS["cr_pcr"]``, the PCR forward step average
``repro.paper.STEP_AVG_MS["cr_pcr"]`` (7 steps) and the total
``repro.paper.TOTAL_MS["cr_pcr"]``.
"""

from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet

from bench_fig8_cr_phases import build_table


def test_fig15_crpcr_phases(benchmark):
    emit("fig15_crpcr_phases", *build_table("cr_pcr"))
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("cr_pcr", s))


if __name__ == "__main__":
    emit("fig15_crpcr_phases", *build_table("cr_pcr"))
