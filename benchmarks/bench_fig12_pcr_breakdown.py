"""Figure 12: PCR resource breakdown at 512x512.

Paper: global 0.106 ms (20 %, 47.2 GB/s), shared 0.163 ms (30 %,
883 GB/s), compute 0.265 ms (50 %, 101.9 GFLOPS).
"""

from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet

from bench_fig10_cr_breakdown import build_table

PAPER = [("global", 0.106, "47.2 GB/s"), ("shared", 0.163, "883 GB/s"),
         ("compute", 0.265, "101.9 GFLOPS")]


def test_fig12_pcr_breakdown(benchmark):
    text, data = build_table(solver="pcr", paper=PAPER)
    emit("fig12_pcr_breakdown", text, data=data)
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("pcr", s))


if __name__ == "__main__":
    text, data = build_table(solver="pcr", paper=PAPER)
    emit("fig12_pcr_breakdown", text, data=data)
