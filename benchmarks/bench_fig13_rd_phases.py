"""Figure 13: RD phase breakdown at 512x512.

Paper: ``repro.paper.PHASE_MS["rd"]``, the scan step average
``repro.paper.STEP_AVG_MS["rd"]`` (9 steps) and the total
``repro.paper.TOTAL_MS["rd"]``.  (The paper books RD's global writes
in the first slice; our kernel stores results during evaluation, so
compare the merged global+setup+eval against the sum of those two
slices.)
"""

from repro.kernels.api import run_kernel
from repro.numerics.generators import close_values

from _harness import emit, quiet

from bench_fig8_cr_phases import build_table


def test_fig13_rd_phases(benchmark):
    emit("fig13_rd_phases", build_table("rd")[0])
    with quiet():
        s = close_values(2, 512, seed=0)
        benchmark(lambda: run_kernel("rd", s))


if __name__ == "__main__":
    emit("fig13_rd_phases", build_table("rd")[0])
