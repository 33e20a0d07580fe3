"""The paper's published numbers, each held once and tagged with the
figure or section that publishes it.

Zhang, Cohen & Owens, "Fast Tridiagonal Solvers on the GPU" (PPoPP
2010), on a GTX 280.  Timings are ms for the flagship problem
(:data:`NUM_SYSTEMS` systems of :data:`N` unknowns), the one size the
phase and resource figures publish -- hence the only size the
cost-model fit (:mod:`repro.gpusim.calibrate`) uses.  Data only;
``benchmarks/bench_paper_fidelity.py`` gates the model against it.
"""

#: §5.2: the flagship problem size of every phase/resource figure.
NUM_SYSTEMS = 512
N = 512

#: Fig 6: problem sizes ``(num_systems, n)``; the grids are square.
SIZES = [(64, 64), (128, 128), (256, 256), (512, 512)]

#: Fig 6 left: solver totals at 512x512, without PCIe transfer.
TOTAL_MS = {"cr": 1.066, "pcr": 0.534, "rd": 0.612,
            "cr_pcr": 0.422, "cr_rd": 0.488}

#: Fig 7: best GPU over best CPU per size n; left panel, then right.
SPEEDUP = {64: 2.7, 128: 5.7, 256: 17.2, 512: 12.5}
SPEEDUP_WITH_TRANSFER = {64: 0.1, 128: 0.3, 256: 1.5, 512: 1.2}

#: §1/§6: speedup over sequential (pivoting) LAPACK at 512x512.
LAPACK_SPEEDUP = 28.0

#: Fig 16 publishes CR+RD's CR backward substitution as two slices.
CR_RD_BACKWARD_SLICES_MS = (0.024, 0.032)

#: Figs 8, 11, 13, 15 (m = 256) and 16 (m = 128): phase slices, in
#: figure order, keyed by kernel phase; ``global_memory_access`` is the
#: one slice the paper publishes for our ``global_load`` +
#: ``global_store``.  Fig 13 books all of RD's global traffic,
#: including the final store, into ``global_load_setup``.
PHASE_MS = {
    "cr": {"global_memory_access": 0.103, "forward_reduction": 0.624,
           "solve_two": 0.033, "backward_substitution": 0.306},
    "pcr": {"global_memory_access": 0.106, "forward_reduction": 0.409,
            "solve_two": 0.019},
    "rd": {"global_load_setup": 0.109, "scan": 0.484,
           "solution_evaluation": 0.019},
    "cr_pcr": {"global_memory_access": 0.104,
               "cr_forward_reduction": 0.060, "copy_intermediate": 0.009,
               "inner_forward_reduction": 0.200, "inner_solve_two": 0.023,
               "cr_backward_substitution": 0.026},
    "cr_rd": {"global_memory_access": 0.104,
              "cr_forward_reduction": 0.039, "rd_copy_setup": 0.069,
              "rd_scan": 0.179, "rd_solution_evaluation": 0.018,
              "cr_backward_substitution": sum(CR_RD_BACKWARD_SLICES_MS)},
}

#: Fig 8: CR's phase shares as the paper prints them (percent / 100).
CR_PHASE_SHARE = {"global_memory_access": 0.10, "forward_reduction": 0.59,
                  "solve_two": 0.03, "backward_substitution": 0.29}

#: Figs 8, 11, 13, 15, 16: average ms per step of the step-wise phase.
STEP_AVG_MS = {
    "cr": {"forward_reduction": 0.078, "backward_substitution": 0.038},
    "pcr": {"forward_reduction": 0.051},
    "rd": {"scan": 0.054},
    "cr_pcr": {"inner_forward_reduction": 0.029},
    "cr_rd": {"rd_scan": 0.026},
}

#: Figs 10, 12, 14: global / shared / compute split.
RESOURCE_MS = {
    "cr": {"global": 0.103, "shared": 0.689, "compute": 0.274},
    "pcr": {"global": 0.106, "shared": 0.163, "compute": 0.265},
    "rd": {"global": 0.109, "shared": 0.262, "compute": 0.241},
}

#: Fig 10: CR's resource shares as the paper prints them.
CR_RESOURCE_SHARE = {"global": 0.10, "shared": 0.64, "compute": 0.26}

#: Figs 10, 12, 14: effective rates -- global and shared in GB/s,
#: compute in GFLOPS.
RESOURCE_RATE = {
    "cr": {"global": 48.5, "shared": 33.0, "compute": 15.5},
    "pcr": {"global": 47.2, "shared": 883.0, "compute": 101.9},
    "rd": {"global": 45.9, "shared": 1095.0, "compute": 186.7},
}

#: Fig 9: bank-conflict slowdown of each CR forward-reduction step.
CONFLICT_PENALTY = [1.7, 3.1, 3.3, 4.8, 4.8, 3.0, 2.3, 2.3]

#: Fig 17: best intermediate system size at n = 512 (CR+RD's m = 256
#: does not fit in shared memory, §5.3.5).
BEST_M = {"cr_pcr": 256, "cr_rd": 128}

#: §1: how much faster each hybrid is than the solver it improves.
GAIN = {("cr_pcr", "pcr"): 0.21, ("cr_rd", "rd"): 0.31,
        ("cr_pcr", "cr"): 0.61}
