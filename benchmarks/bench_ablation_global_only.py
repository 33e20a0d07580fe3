"""Ablation: shared-memory staging vs global-memory-only CR.

Paper §4: systems too large for shared memory are solved out of global
memory "at a cost of roughly 3x performance degradation".  The modeled
penalty comes from exposed DRAM latency on strided, poorly-coalesced
accesses -- visible in the transaction counts below.  n = 1024 runs
*only* on the global path (five 1024-word arrays exceed 16 KiB of
shared memory), demonstrating the fallback's reason to exist.
"""

from repro.gpusim import KernelError, gt200_cost_model
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table


def build_table() -> str:
    cm = gt200_cost_model()
    rows = []
    with quiet():
        for n in (128, 256, 512, 1024):
            s = diagonally_dominant_fluid(2, n, seed=n)
            _x, g = run_kernel("cr_global", s)
            t_global = cm.report(g).total_ms
            trans = g.ledger.total().global_transactions
            try:
                _x, sh = run_kernel("cr", s)
                t_shared = cm.report(sh).total_ms
                ratio = f"{t_global / t_shared:.2f}x"
            except KernelError:
                t_shared = "won't fit"
                ratio = "-"
            rows.append([n, t_shared, t_global, trans, ratio])
    return table(["n", "shared_ms", "global_only_ms",
                  "global_transactions", "penalty"], rows) \
        + "\npaper: 'roughly 3x performance degradation' (SS4)"


def test_ablation_global_only(benchmark):
    emit("ablation_global_only", build_table())
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("cr_global", s))


if __name__ == "__main__":
    emit("ablation_global_only", build_table())
