"""Ablation: in-place vs double-buffered PCR -- pricing the §4 choice.

"In all three solvers, we keep data in-place during the entire
solution ... The advantage of an in-place approach is that we save
shared memory space so that we can fit multiple blocks running
simultaneously on one multiprocessor."

The double-buffered variant saves one barrier per step but carries
9n words of shared memory against in-place's 5n.  The table shows the
occupancy consequence: fewer resident blocks at every size, a
15-25 % slowdown at 128-256, and a hard wall at 512 -- the flagship
problem size simply does not fit, which alone justifies the paper's
design.
"""

from repro import paper
from repro.analysis.timing import modeled_grid_timing
from repro.gpusim import GTX280, KernelError
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table


def build_table() -> str:
    rows = []
    with quiet():
        for S, n in paper.SIZES:
            t_in = modeled_grid_timing("pcr", n, S)
            conc_in = GTX280.blocks_per_sm(t_in.launch.shared_bytes, n)
            try:
                pp = modeled_grid_timing("pcr_pingpong", n, S).report
                pp_cell = pp.total_ms
                conc_cell = f"{conc_in}->{pp.blocks_per_sm}"
            except KernelError:
                pp_cell, conc_cell = "won't fit", f"{conc_in}->0"
            rows.append([f"{S}x{n}", t_in.solver_ms, pp_cell, conc_cell])
    return table(["size", "inplace_ms", "pingpong_ms", "blocks/SM"],
                 rows) + ("\n(SS4: in-place saves shared memory so "
                          "multiple blocks stay resident; double "
                          "buffering cannot even hold the 512 case)")


def test_ablation_inplace_pcr(benchmark):
    emit("ablation_inplace_pcr", build_table())
    with quiet():
        s = diagonally_dominant_fluid(2, 256, seed=0)
        benchmark(lambda: run_kernel("pcr_pingpong", s))


if __name__ == "__main__":
    emit("ablation_inplace_pcr", build_table())
