"""Figure 14: RD resource breakdown at 512x512.

Paper: global 0.109 ms (18 %, 45.9 GB/s), shared 0.262 ms (43 %,
1095 GB/s), compute 0.241 ms (39 %, 186.7 GFLOPS).
"""

from repro.kernels.api import run_kernel
from repro.numerics.generators import close_values, diagonally_dominant_fluid

from _harness import emit, quiet

from bench_fig10_cr_breakdown import build_table

PAPER = [("global", 0.109, "45.9 GB/s"), ("shared", 0.262, "1095 GB/s"),
         ("compute", 0.241, "186.7 GFLOPS")]


def test_fig14_rd_breakdown(benchmark):
    text, data = build_table(solver="rd", paper=PAPER,
                             generator=close_values)
    emit("fig14_rd_breakdown", text, data=data)
    with quiet():
        s = close_values(2, 512, seed=0)
        benchmark(lambda: run_kernel("rd", s))


if __name__ == "__main__":
    text, data = build_table(solver="rd", paper=PAPER,
                             generator=close_values)
    emit("fig14_rd_breakdown", text, data=data)
