"""Ablation: the paper's equations-to-threads mapping vs the naive
systems-to-threads (one-thread-per-system Thomas) mapping.

§3 argues coarse-grained methods "map larger amounts of work per
thread ... more suitable to a multi-core CPU".  The table quantifies
it on the simulated GTX 280: the naive mapping loses on coalescing
(strided layout) and on its 2n-step serial chain even after the layout
is fixed by interleaving.
"""

from repro.gpusim import gt200_cost_model
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table


def build_table() -> str:
    cm = gt200_cost_model()
    rows = []
    with quiet():
        for S, n in ((64, 64), (128, 128), (256, 256)):
            s = diagonally_dominant_fluid(S, n, seed=n)
            _x, strided = run_kernel("thomas", s)
            _x, inter = run_kernel("thomas", s, layout="interleaved")
            _x, cr = run_kernel("cr", s)
            _x, pcr = run_kernel("pcr", s)
            rows.append([
                f"{S}x{n}",
                cm.report(strided).total_ms,
                cm.report(inter).total_ms,
                cm.report(cr).total_ms,
                cm.report(pcr).total_ms,
                strided.ledger.total().global_transactions,
                inter.ledger.total().global_transactions,
            ])
    return table(["size", "per_thread_ms", "interleaved_ms", "cr_ms",
                  "pcr_ms", "trans(strided)", "trans(interleaved)"],
                 rows) + ("\n(naive mapping: bad coalescing AND a 2n-step "
                          "serial chain; the paper's mapping wins on both)")


def test_ablation_thread_mapping(benchmark):
    emit("ablation_thread_mapping", build_table())
    with quiet():
        s = diagonally_dominant_fluid(128, 128, seed=0)
        benchmark(lambda: run_kernel("thomas", s, layout="interleaved"))


if __name__ == "__main__":
    emit("ablation_thread_mapping", build_table())
