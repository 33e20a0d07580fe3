"""Device-sensitivity study: re-run the paper's analysis on
hypothetical hardware.

The paper notes its hybrid motivation "will be an issue on any vector
architecture" (§3).  Because the simulator separates algorithm traces
from device parameters, we can ask how the conclusions shift on a
Fermi-class part (32 banks, 48 KiB shared memory, conflicts resolved
per full warp) or on any custom spec:

* more shared memory -> several resident blocks at n = 512 -> the
  occupancy cliff of §5.2 disappears and exposed latency shrinks;
* CR+RD's m = 256 configuration becomes feasible;
* 32 banks halve the conflict degree of the middle CR steps.

This is exactly the kind of what-if the paper's future-work tooling
item asks for, so it lives next to the advisor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim import CostModel, DeviceSpec, GTX280, gt200_cost_model
from repro.solvers.systems import TridiagonalSystems

#: A GF100/Fermi-like spec.  Cost-model *coefficients* stay GT200-
#: calibrated -- the study isolates architectural-parameter effects
#: (banks, capacity, occupancy), not process/clock improvements.
FERMI_LIKE = DeviceSpec(
    name="Fermi-like",
    num_sms=14,
    cores_per_sm=32,
    warp_size=32,
    shared_mem_banks=32,
    shared_mem_per_sm=48 * 1024,
    max_threads_per_block=1024,
    max_blocks_per_sm=8,
    max_threads_per_sm=1536,
    conflict_granularity=32,
    coalesce_segment_bytes=128,
)


@dataclass
class DeviceComparison:
    """Per-solver modeled times on two devices, same workload."""

    workload: str
    solver: str
    baseline_ms: float
    variant_ms: float
    baseline_device: str
    variant_device: str

    @property
    def speedup(self) -> float:
        return self.baseline_ms / self.variant_ms


def compare_devices(systems: TridiagonalSystems, *,
                    solvers=("cr", "pcr", "cr_pcr"),
                    intermediate_sizes: dict | None = None,
                    baseline: DeviceSpec = GTX280,
                    variant: DeviceSpec = FERMI_LIKE,
                    num_systems: int | None = None,
                    cost_model: CostModel | None = None
                    ) -> list[DeviceComparison]:
    """Model each solver on both devices; counters re-measured per
    device (bank structure changes the conflict trace)."""
    from repro.kernels.api import run_kernel

    cm = cost_model or gt200_cost_model()
    S = num_systems or systems.num_systems
    ms = intermediate_sizes or {}
    out = []
    for name in solvers:
        times = {}
        for dev in (baseline, variant):
            _x, res = run_kernel(name, systems,
                                 intermediate_size=ms.get(name),
                                 device=dev)
            times[dev.name] = cm.grid_report(
                dev, S, res.shared_bytes, res.threads_per_block,
                res.ledger).total_ms
        out.append(DeviceComparison(
            workload=f"{S}x{systems.n}", solver=name,
            baseline_ms=times[baseline.name],
            variant_ms=times[variant.name],
            baseline_device=baseline.name, variant_device=variant.name))
    return out


def occupancy_shift(n: int, *, baseline: DeviceSpec = GTX280,
                    variant: DeviceSpec = FERMI_LIKE) -> dict:
    """How many CR blocks fit per SM on each device at system size n."""
    shared = 5 * n * 4
    threads = max(1, n // 2)
    return {
        baseline.name: baseline.blocks_per_sm(shared, threads),
        variant.name: variant.blocks_per_sm(shared, threads),
    }
