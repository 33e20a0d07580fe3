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

from repro.analysis.timing import modeled_grid_timing
from repro.gpusim import GTX280, KernelError, gt200_cost_model
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table


def build_table() -> str:
    cm = gt200_cost_model()
    rows = []
    with quiet():
        for n, S in ((64, 64), (128, 128), (256, 256), (512, 512)):
            t_in = modeled_grid_timing("pcr", n, S).solver_ms
            s = diagonally_dominant_fluid(2, n, seed=n)
            _x, r_in = run_kernel("pcr", s)
            conc_in = GTX280.blocks_per_sm(r_in.shared_bytes, n)
            try:
                _x, r_pp = run_kernel("pcr_pingpong", s)
                scale, conc_pp, _ = cm.grid_scale(
                    GTX280, S, r_pp.shared_bytes, r_pp.threads_per_block)
                t_pp = sum(
                    cm.phase_time_block_ns(pc, conc_pp).total_ms
                    for pc in r_pp.ledger.phases.values()) * scale * 1e-6 \
                    + cm.params.launch_overhead_ns * 1e-6
                pp_cell, conc_cell = t_pp, f"{conc_in}->{conc_pp}"
            except KernelError:
                pp_cell, conc_cell = "won't fit", f"{conc_in}->0"
            rows.append([f"{S}x{n}", t_in, pp_cell, conc_cell])
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
