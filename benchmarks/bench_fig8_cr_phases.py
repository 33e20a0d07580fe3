"""Figure 8: CR phase breakdown at 512x512 -- and the one phase table
that Figs 11, 13, 15 and 16 share.

Paper: ``repro.paper.PHASE_MS["cr"]``, the per-step averages
``repro.paper.STEP_AVG_MS["cr"]`` (8 forward and 8 backward steps) and
the total ``repro.paper.TOTAL_MS["cr"]``.
"""

from repro import paper
from repro.analysis.timing import modeled_grid_timing
from repro.gpusim.calibrate import SLICE_PHASES
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table


def build_table(name="cr") -> tuple[str, list]:
    """Model vs paper per published phase slice of solver ``name``
    (hybrids at the paper's switch point), the total, and the per-step
    averages the paper reports."""
    m = paper.BEST_M.get(name)
    with quiet():
        t = modeled_grid_timing(name, paper.N, paper.NUM_SYSTEMS,
                                intermediate_size=m)
    total = t.solver_ms
    rows = []
    for piece, published in paper.PHASE_MS[name].items():
        ms = sum(t.report.phase_ms(p)
                 for p in SLICE_PHASES.get(piece, (piece,)))
        rows.append([piece, ms, ms / total, published])
    rows.append(["TOTAL", total, 1.0, paper.TOTAL_MS[name]])
    data = [{"solver": name, "num_systems": paper.NUM_SYSTEMS, "n": paper.N,
             **({"intermediate_size": m} if m else {}), "phase": piece,
             "modeled_ms": ms, "fraction": frac}
            for piece, ms, frac, _paper in rows]
    steps = [(phase, t.report.steps_ms(phase), published)
             for phase, published in paper.STEP_AVG_MS[name].items()]
    extra = table(["phase", "steps", "avg_ms(model)", "avg_ms(paper)"],
                  [[phase, len(ms), sum(ms) / len(ms), published]
                   for phase, ms, published in steps])
    return (table(["phase", "model_ms", "fraction", "paper_ms"], rows)
            + "\n\n" + extra, data)


def test_fig8_cr_phases(benchmark):
    emit("fig8_cr_phases", *build_table())
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("cr", s))


if __name__ == "__main__":
    emit("fig8_cr_phases", *build_table())
