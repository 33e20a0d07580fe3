"""The paper's measurement methodology, as a guided tour.

Walks through everything §5 does for the 512x512 problem size on the
simulated GTX 280:

1. differential timing -> per-phase and per-step costs (Figs 8-16)
2. register-substitution probe -> global/shared/compute split
3. bank-conflict analysis of CR's forward reduction (Fig 9)
4. switch-point autotuning for the hybrids (Fig 17)

Run:  python examples/performance_analysis.py
"""

import warnings

from repro.analysis import (attributed_step_times, forward_reduction_conflicts,
                            modeled_grid_timing, phase_breakdown,
                            resource_breakdown, shared_time_by_substitution,
                            sweep_switch_point)
from repro.kernels import run_kernel
from repro.numerics import diagonally_dominant_fluid

warnings.simplefilter("ignore")


def main() -> None:
    systems = diagonally_dominant_fluid(2, 512, seed=0)

    # ------------------------------------------------------------------
    print("=== 1. phase breakdown of CR at 512x512 (cf. Fig 8) ===")
    t = modeled_grid_timing("cr", 512, 512)
    _x, launch = run_kernel("cr", systems)
    for name, ms, frac in phase_breakdown(launch, merge_global=True):
        print(f"  {name:24s} {frac:6.1%}")
    print(f"  modeled total at 512 systems: {t.solver_ms:.3f} ms "
          f"(paper: 1.066 ms)")

    # ------------------------------------------------------------------
    print("\n=== 2. resource split via register substitution (Fig 10) ===")
    rb = resource_breakdown(launch)
    probe = shared_time_by_substitution(launch)
    gf, sf, cf = rb.fractions()
    print(f"  global {gf:5.1%}   shared {sf:5.1%}   compute {cf:5.1%} "
          f"(paper: 10/64/26%)")
    print(f"  substitution probe == direct attribution: "
          f"{abs(probe - rb.shared_ms) < 1e-12}")
    print(f"  effective shared bandwidth: {rb.shared_GBps:.0f} GB/s "
          f"(paper: 33 GB/s for CR, 883 GB/s for PCR)")

    # ------------------------------------------------------------------
    print("\n=== 3. bank conflicts in forward reduction (Fig 9) ===")
    for st in forward_reduction_conflicts(systems):
        bar = "#" * round(st.penalty * 4)
        print(f"  step {st.index + 1}: {st.active_threads:3d} threads, "
              f"{round(st.conflict_degree):2d}-way -> {st.penalty:4.1f}x {bar}")

    # ------------------------------------------------------------------
    print("\n=== 4. hybrid switch-point sweep (Fig 17) ===")
    for inner in ("pcr", "rd"):
        sweep = sweep_switch_point(systems, inner)
        line = "  cr+" + inner + ": "
        for p in sweep.points:
            val = ("----" if p.solver_ms is None
                   else f"{p.solver_ms * 1000:.0f}")
            line += f"m={p.intermediate_size}:{val}us  "
        print(line)
        print(f"    best m = {sweep.best().intermediate_size} "
              f"(paper: {'256' if inner == 'pcr' else '128'})")

    # ------------------------------------------------------------------
    print("\n=== 5. roofline placement (the paper's ref [33]) ===")
    from repro.analysis import device_roofs, place_kernel, roofline_table
    _x, pcr_launch = run_kernel("pcr", systems)
    pts = [place_kernel("cr", launch), place_kernel("pcr", pcr_launch)]
    print(roofline_table(pts, device_roofs()))
    print("  (CR sits under a conflict-collapsed shared roof; PCR is "
          "compute-bound at full lanes)")

    # ------------------------------------------------------------------
    print("\n=== 6. the per-step story the paper tells ===")
    steps = attributed_step_times(launch)
    fwd = [s for s in steps if s.phase == "forward_reduction"]
    print("  CR forward-reduction step times do NOT decrease with the "
          "work -- they are dominated by")
    print("  bank conflicts and per-step overhead "
          "(the observation that motivates the hybrids):")
    for s in fwd:
        print(f"    step {s.index + 1}: {s.ms * 1e3:7.2f} us/block")


if __name__ == "__main__":
    main()
