"""Figure 12: PCR resource breakdown at 512x512.

Paper: ``repro.paper.RESOURCE_MS["pcr"]`` at the rates
``repro.paper.RESOURCE_RATE["pcr"]``.
"""

from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet

from bench_fig10_cr_breakdown import build_table


def test_fig12_pcr_breakdown(benchmark):
    emit("fig12_pcr_breakdown", *build_table(solver="pcr"))
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("pcr", s))


if __name__ == "__main__":
    emit("fig12_pcr_breakdown", *build_table(solver="pcr"))
