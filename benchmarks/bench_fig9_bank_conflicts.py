"""Figure 9: bank-conflict impact on CR forward reduction, 512x512.

Per step: active threads, warps, n-way conflict degree, modeled time
with and without conflicts, and the slowdown factor.  The paper
annotates each of the eight steps (``repro.paper.CONFLICT_PENALTY``)
and shows the conflict-free time flattening once fewer than 32 threads
remain.
"""

from repro import paper
from repro.analysis.bankconflict import (forward_reduction_conflicts,
                                         overall_conflict_penalty)
from repro.gpusim import GTX280, gt200_cost_model
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table


def build_table() -> str:
    with quiet():
        s = diagonally_dominant_fluid(2, paper.N, seed=0)
        steps = forward_reduction_conflicts(s)
    # Scale block-level step times to the paper's 512-block grid.
    scale, _, _ = gt200_cost_model().grid_scale(
        GTX280, paper.NUM_SYSTEMS, 5 * paper.N * 4, paper.N // 2)
    rows = []
    for st, paper_pen in zip(steps, paper.CONFLICT_PENALTY):
        rows.append([
            st.index + 1, st.active_threads, st.warps,
            round(st.conflict_degree),
            st.with_conflicts_ms * scale,
            st.without_conflicts_ms * scale,
            f"{st.penalty:.1f}x", f"{paper_pen:.1f}x",
        ])
    footer = (f"overall forward-reduction conflict penalty: "
              f"{overall_conflict_penalty(steps):.2f}x")
    return table(
        ["step", "threads", "warps", "n-way", "with_ms", "without_ms",
         "penalty", "paper"],
        rows) + "\n" + footer


def test_fig9_bank_conflicts(benchmark):
    emit("fig9_bank_conflicts", build_table())
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: forward_reduction_conflicts(s))


if __name__ == "__main__":
    emit("fig9_bank_conflicts", build_table())
