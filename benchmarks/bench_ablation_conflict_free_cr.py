"""Ablation: in-place CR vs conflict-free CR variants vs hybrid CR+PCR.

Paper footnote 1: Goeddeke & Strzodka independently proposed storing
even/odd equations separately to remove CR's bank conflicts, achieving
"similar performance as our hybrid CR+PCR solver, at the cost of 50%
more shared memory usage".  Two incarnations here:

- ``cr_conflict_free_ms``: the paper's own Fig-9-style probe (same
  in-place algorithm, stride-one *cost* addresses) -- an upper bound
  on what removing conflicts alone can buy;
- ``cr_split_ms``: the real split-storage kernel
  (:mod:`repro.kernels.cr_split_kernel`), bank-conflict free by
  construction, at ~2x shared footprint in our layout -- it therefore
  fits only up to n = 256 on the GT200 and that row carries the
  footnote comparison.
"""

from repro.analysis.timing import modeled_grid_timing
from repro.gpusim import GTX280 as GTX280_DEV
from repro.gpusim import KernelError, gt200_cost_model
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table


def _grid_ms(cm, res, S):
    scale, conc, _ = cm.grid_scale(GTX280_DEV, S, res.shared_bytes,
                                   res.threads_per_block)
    return sum(cm.phase_time_block_ns(pc, blocks_per_sm=conc).total_ms
               for pc in res.ledger.phases.values()) * scale * 1e-6 \
        + cm.params.launch_overhead_ns * 1e-6


def build_table() -> str:
    cm = gt200_cost_model()
    rows = []
    with quiet():
        for n, S in ((128, 128), (256, 256), (512, 512)):
            t_cr = modeled_grid_timing("cr", n, S)
            t_hybrid = modeled_grid_timing("cr_pcr", n, S,
                                           intermediate_size=n // 2)
            s = diagonally_dominant_fluid(2, n, seed=n)
            _x, cf = run_kernel("cr", s, conflict_free_timing=True)
            t_cf = _grid_ms(cm, cf, S)
            try:
                _x, sp = run_kernel("cr_split", s)
                t_split = _grid_ms(cm, sp, S)
                split_cell = t_split
            except KernelError:
                split_cell = "won't fit"
            rows.append([f"{S}x{n}", t_cr.solver_ms, t_cf, split_cell,
                         t_hybrid.solver_ms,
                         f"{t_cr.solver_ms / t_hybrid.solver_ms:.2f}x"])
    return table(["size", "cr_ms", "cr_conflict_free_ms", "cr_split_ms",
                  "cr_pcr_ms", "hybrid_gain"], rows) \
        + ("\npaper footnote 1: split-storage CR ~ hybrid CR+PCR at +50% "
           "shared memory.  Our explicit layout costs ~2x instead, which "
           "halves occupancy -- per-block the split kernel beats in-place "
           "CR handily (zero conflicts), but at grid scale the lost "
           "block-level parallelism eats the win below n = 512.  The "
           "footnote's 50% figure is exactly what keeps Goeddeke's "
           "variant competitive; shaving our layout to 1.5x would need "
           "the scratch-overlay trick described in "
           "kernels/cr_split_kernel.py.")


def test_ablation_conflict_free_cr(benchmark):
    emit("ablation_conflict_free_cr", build_table())
    with quiet():
        s = diagonally_dominant_fluid(2, 256, seed=0)
        benchmark(lambda: run_kernel("cr", s, conflict_free_timing=True))


if __name__ == "__main__":
    emit("ablation_conflict_free_cr", build_table())
