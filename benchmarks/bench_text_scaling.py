"""§5.2 text claim: sub-linear runtime growth with problem size.

"Notice that when the problem size increases by 4 times from size
64x64 to 128x128 (or from 128x128 to 256x256), the runtime favorably
increases far less than 4 times.  This is because the GPU prefers
large amounts of parallelism ...  The relative performance on the
512x512 problem size is not as high as the 256x256 problem size
because the system size is too large to fit multiple blocks running
simultaneously on a GPU multiprocessor."

The table reports, for the best GPU solver at each size, the runtime
growth factor against the 4x work growth, plus the occupancy that
explains the 512x512 dip.
"""

from repro import paper
from repro.gpusim import GTX280
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table

from bench_fig7_cpu_comparison import best_gpu


def best_time_and_occupancy(S, n):
    name, t = best_gpu(n, S)
    conc = GTX280.blocks_per_sm(t.launch.shared_bytes,
                                t.launch.threads_per_block)
    return name, t.solver_ms, conc


def build_table() -> str:
    rows = []
    prev_ms = None
    for S, n in paper.SIZES:
        name, ms, conc = best_time_and_occupancy(S, n)
        growth = "-" if prev_ms is None else f"{ms / prev_ms:.2f}x"
        rows.append([f"{S}x{n}", name, ms, growth, "4x", conc])
        prev_ms = ms
    return table(["size", "best", "ms", "time growth", "work growth",
                  "blocks/SM"], rows) + \
        ("\n(sub-4x growth until occupancy collapses to one block per "
         "SM at 512 -- the SS5.2 narrative)")


def test_text_scaling(benchmark):
    text = build_table()
    emit("text_scaling_claim", text)
    # The claim itself, asserted: both 4x work steps grow < 4x in time.
    with quiet():
        times = []
        for S, n in paper.SIZES:
            _name, ms, _conc = best_time_and_occupancy(S, n)
            times.append(ms)
    assert times[1] / times[0] < 4.0
    assert times[2] / times[1] < 4.0
    with quiet():
        s = diagonally_dominant_fluid(2, 256, seed=0)
        benchmark(lambda: run_kernel("pcr", s))


if __name__ == "__main__":
    emit("text_scaling_claim", build_table())
