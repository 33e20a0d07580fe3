"""Figure 14: RD resource breakdown at 512x512.

Paper: ``repro.paper.RESOURCE_MS["rd"]`` at the rates
``repro.paper.RESOURCE_RATE["rd"]``.
"""

from repro.kernels.api import run_kernel
from repro.numerics.generators import close_values

from _harness import emit, quiet

from bench_fig10_cr_breakdown import build_table


def test_fig14_rd_breakdown(benchmark):
    emit("fig14_rd_breakdown",
         *build_table(solver="rd", generator=close_values))
    with quiet():
        s = close_values(2, 512, seed=0)
        benchmark(lambda: run_kernel("rd", s))


if __name__ == "__main__":
    emit("fig14_rd_breakdown",
         *build_table(solver="rd", generator=close_values))
