"""Figure 17: hybrid runtime vs intermediate-system size, 512x512.

Paper: the best switch points ``repro.paper.BEST_M`` (CR+RD's m = 256
is infeasible: shared memory); endpoints are the non-hybrid solvers.
Both best switch points sit far above the warp size of 32 (§5.3.4).
"""

from repro import paper
from repro.analysis.autotune import sweep_switch_point
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table


def build_table() -> tuple[str, list]:
    with quiet():
        s = diagonally_dominant_fluid(2, paper.N, seed=0)
        sweeps = {inner: sweep_switch_point(s, inner)
                  for inner in ("pcr", "rd")}
    sizes = [p.intermediate_size for p in sweeps["pcr"].points]
    rows = []
    data = []
    for i, m in enumerate(sizes):
        row = [m]
        for inner in ("pcr", "rd"):
            p = sweeps[inner].points[i]
            row.append(p.solver_ms if p.solver_ms is not None
                       else "infeasible")
            data.append({"solver": f"cr_{inner}",
                         "num_systems": paper.NUM_SYSTEMS, "n": paper.N,
                         "intermediate_size": m,
                         "modeled_ms": p.solver_ms})
        rows.append(row)
    best = {inner: sweeps[inner].best().intermediate_size
            for inner in ("pcr", "rd")}
    data.append({"best_switch_points": {f"cr_{inner}": best[inner]
                                        for inner in ("pcr", "rd")}})
    footer = (f"best switch points -> CR+PCR: m={best['pcr']} "
              f"(paper: {paper.BEST_M['cr_pcr']}), CR+RD: m={best['rd']} "
              f"(paper: {paper.BEST_M['cr_rd']})")
    return (table(["m", "cr_pcr_ms", "cr_rd_ms"], rows) + "\n" + footer,
            data)


def test_fig17_switch_point(benchmark):
    emit("fig17_switch_point", *build_table())
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: sweep_switch_point(s, "pcr"))


if __name__ == "__main__":
    emit("fig17_switch_point", *build_table())
