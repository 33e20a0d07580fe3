"""Figure 11: PCR phase breakdown at 512x512.

Paper: ``repro.paper.PHASE_MS["pcr"]``, the forward-reduction step
average ``repro.paper.STEP_AVG_MS["pcr"]`` (8 steps) and the total
``repro.paper.TOTAL_MS["pcr"]``.
"""

from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet

from bench_fig8_cr_phases import build_table


def test_fig11_pcr_phases(benchmark):
    emit("fig11_pcr_phases", build_table("pcr")[0])
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("pcr", s))


if __name__ == "__main__":
    emit("fig11_pcr_phases", build_table("pcr")[0])
