"""Ablation: coarse-grained partition method vs fine-grained GPU
algorithms -- quantifying §3's claim.

    "Other parallel approaches, such as the sub-structuring method
    [32] and two-way Gaussian elimination [15], are coarse-grained
    methods that map larger amounts of work per thread.  These methods
    would be more suitable to a multi-core CPU."

Columns:
- ``partition_Pcore_ms``: Wang's method on a P-core CPU model (three
  Thomas sweeps per chunk, chunks spread over the cores, plus the
  serial reduced solve) -- the method §3 recommends for CPUs.
- ``mt_ms``: the paper's MT baseline (plain GE over systems).
- ``best_gpu_ms``: the modeled best fine-grained GPU solver.

The table shows the partition method beating plain MT on the CPU (it
parallelises *within* systems too) while still trailing the GPU's
fine-grained approach by an order of magnitude at 512x512 -- §3's
conclusion, measured.
"""

from repro import paper
from repro.analysis.cpumodel import GE_NS_PER_OP, MT_THREADS, mt_ms
from repro.solvers.partition import operation_count, reduced_system_size

from _harness import emit, quiet, table

from bench_fig7_cpu_comparison import best_gpu


def partition_cpu_ms(num_systems: int, n: int, cores: int = MT_THREADS,
                     partitions_per_system: int | None = None) -> float:
    """Model Wang's method on a multi-core CPU.

    Per system: three Thomas sweeps over chunks (parallel across all
    system-chunks on the cores) + the serial 2P-row reduced solve.
    """
    P = partitions_per_system or cores
    par_ops = operation_count(n, P) - 40 * P       # chunk-local work
    red_ops = 8 * reduced_system_size(n, P)        # serial reduced solve
    per_system_ms = (par_ops / cores + red_ops) * GE_NS_PER_OP * 1e-6
    return per_system_ms * num_systems / 1.0


def build_table() -> str:
    rows = []
    with quiet():
        for S, n in paper.SIZES:
            best = best_gpu(n, S)[1].solver_ms
            part = partition_cpu_ms(S, n)
            mt = mt_ms(S, n)
            rows.append([f"{S}x{n}", part, mt, best,
                         f"{part / best:.1f}x", f"{mt / part:.2f}x"])
    return table(
        ["size", "partition_4core_ms", "mt_ms", "best_gpu_ms",
         "gpu_advantage", "partition_vs_mt"],
        rows) + ("\n(partition beats plain MT by parallelising within "
                 "systems; the fine-grained GPU mapping still wins -- "
                 "the paper's SS3 positioning)")


def test_ablation_coarse_grained(benchmark):
    emit("ablation_coarse_grained", build_table())
    from repro.numerics.generators import diagonally_dominant_fluid
    from repro.solvers.partition import partition_solve
    s = diagonally_dominant_fluid(64, 512, seed=0)
    benchmark(lambda: partition_solve(s, 8))


if __name__ == "__main__":
    emit("ablation_coarse_grained", build_table())
