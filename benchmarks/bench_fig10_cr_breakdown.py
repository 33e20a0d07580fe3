"""Figure 10: CR resource breakdown (global/shared/compute), 512x512.

Paper: ``repro.paper.RESOURCE_MS["cr"]`` at the rates
``repro.paper.RESOURCE_RATE["cr"]``.
"""

from repro import paper
from repro.analysis.breakdown import resource_breakdown
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table

UNITS = {"global": "GB/s", "shared": "GB/s", "compute": "GFLOPS"}


def build_table(solver="cr", grid=30, generator=diagonally_dominant_fluid,
                paper_grid=paper.NUM_SYSTEMS) -> tuple[str, list]:
    """Rates are computed on one full device wave (``grid`` = 30
    blocks); the ms columns are rescaled to the paper's grid so they
    compare directly with the published figures."""
    from repro.gpusim import GTX280, gt200_cost_model
    with quiet():
        s = generator(grid, paper.N, seed=0)
        _x, res = run_kernel(solver, s)
        rb = resource_breakdown(res)
    cm = gt200_cost_model()
    s_small, _, _ = cm.grid_scale(GTX280, grid, res.shared_bytes,
                                  res.threads_per_block)
    s_paper, _, _ = cm.grid_scale(GTX280, paper_grid, res.shared_bytes,
                                  res.threads_per_block)
    k = s_paper / s_small
    launch_ms = cm.params.launch_overhead_ns * 1e-6
    # The launch overhead is fixed per launch; scale only the per-wave
    # resource costs.
    compute_scaled = (rb.compute_ms - launch_ms) * k + launch_ms
    gf, sf, cf = rb.fractions()
    model = {"global": (rb.global_ms * k, gf, rb.global_GBps),
             "shared": (rb.shared_ms * k, sf, rb.shared_GBps),
             "compute": (compute_scaled, cf, rb.compute_GFLOPS)}
    published = paper.RESOURCE_MS[solver]
    rows = [[name, ms, frac, published[name], f"{rate:.1f} {UNITS[name]}",
             f"{paper.RESOURCE_RATE[solver][name]:g} {UNITS[name]}"]
            for name, (ms, frac, rate) in model.items()]
    rows.append(["TOTAL", sum(row[1] for row in rows), 1.0,
                 sum(published.values()), "", ""])
    data = [{"solver": solver, "num_systems": paper_grid, "n": paper.N,
             "resource": name, "modeled_ms": ms, "fraction": frac}
            for name, ms, frac, *_rest in rows]
    return (table(["resource", "model_ms", "fraction", "paper_ms",
                   "model_rate", "paper_rate"], rows), data)


def test_fig10_cr_breakdown(benchmark):
    emit("fig10_cr_breakdown", *build_table())
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("cr", s))


if __name__ == "__main__":
    emit("fig10_cr_breakdown", *build_table())
