"""Figure 10: CR resource breakdown (global/shared/compute), 512x512.

Paper: global 0.103 ms (10 %, 48.5 GB/s), shared 0.689 ms (64 %,
33 GB/s), compute 0.274 ms (26 %, 15.5 GFLOPS).
"""

from repro.analysis.breakdown import resource_breakdown
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table

PAPER = [("global", 0.103, "48.5 GB/s"), ("shared", 0.689, "33 GB/s"),
         ("compute", 0.274, "15.5 GFLOPS")]


def build_table(solver="cr", grid=30, paper=PAPER,
                generator=diagonally_dominant_fluid,
                paper_grid=512) -> tuple[str, list]:
    """Rates are computed on one full device wave (``grid`` = 30
    blocks); the ms columns are rescaled to the paper's grid so they
    compare directly with the published figures."""
    from repro.gpusim import GTX280, gt200_cost_model
    with quiet():
        s = generator(grid, 512, seed=0)
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
    rows = [
        ["global", rb.global_ms * k, gf, paper[0][1],
         f"{rb.global_GBps:.1f} GB/s", paper[0][2]],
        ["shared", rb.shared_ms * k, sf, paper[1][1],
         f"{rb.shared_GBps:.1f} GB/s", paper[1][2]],
        ["compute", compute_scaled, cf, paper[2][1],
         f"{rb.compute_GFLOPS:.1f} GFLOPS", paper[2][2]],
        ["TOTAL", rb.global_ms * k + rb.shared_ms * k + compute_scaled,
         1.0, sum(p[1] for p in paper), "", ""],
    ]
    data = [{"solver": solver, "num_systems": paper_grid, "n": 512,
             "resource": name, "modeled_ms": ms, "fraction": frac}
            for name, ms, frac, *_rest in rows]
    return (table(["resource", "model_ms", "fraction", "paper_ms",
                   "model_rate", "paper_rate"], rows), data)


def test_fig10_cr_breakdown(benchmark):
    text, data = build_table()
    emit("fig10_cr_breakdown", text, data=data)
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        benchmark(lambda: run_kernel("cr", s))


if __name__ == "__main__":
    text, data = build_table()
    emit("fig10_cr_breakdown", text, data=data)
