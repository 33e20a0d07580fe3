"""Ablation: device sensitivity -- the paper's analysis on Fermi-like
hardware.

Holds the GT200-fitted cost coefficients constant and varies only the
architectural parameters (banks, shared capacity, SM count,
conflict-group width), isolating the structural effects the paper
predicts would change on future hardware: the 512x512 occupancy cliff,
the CR+RD m = 256 shared-memory limit, and the bank-conflict ladder.
"""

from repro.analysis.device_study import (FERMI_LIKE, compare_devices,
                                         occupancy_shift)
from repro.gpusim import GTX280, KernelError
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table


def build_table() -> str:
    with quiet():
        s = diagonally_dominant_fluid(2, 512, seed=0)
        comps = compare_devices(
            s, solvers=("cr", "pcr", "rd", "cr_pcr"),
            intermediate_sizes={"cr_pcr": 256}, num_systems=512)
        rows = [[c.solver, c.baseline_ms, c.variant_ms,
                 f"{c.speedup:.2f}x"] for c in comps]
        occ = occupancy_shift(512)
        try:
            run_kernel("cr_rd", s, intermediate_size=256, device=GTX280)
            gt200_m256 = "fits"
        except KernelError:
            gt200_m256 = "exceeds shared memory"
        run_kernel("cr_rd", s, intermediate_size=256, device=FERMI_LIKE)
        fermi_m256 = "fits"
    notes = [
        f"CR blocks/SM at n=512: GTX280={occ['GTX 280']}, "
        f"Fermi-like={occ['Fermi-like']} (the SS5.2 occupancy cliff "
        f"disappears)",
        f"CR+RD m=256: GTX280 {gt200_m256}; Fermi-like {fermi_m256} "
        f"(the SS5.3.5 limit is a device property)",
    ]
    return (table(["solver", "gtx280_ms", "fermi_like_ms", "speedup"],
                  rows) + "\n" + "\n".join(notes))


def test_ablation_device_study(benchmark):
    emit("ablation_device_study", build_table())
    with quiet():
        s = diagonally_dominant_fluid(2, 256, seed=0)
        benchmark(lambda: compare_devices(s, solvers=("cr",),
                                          num_systems=256))


if __name__ == "__main__":
    emit("ablation_device_study", build_table())
