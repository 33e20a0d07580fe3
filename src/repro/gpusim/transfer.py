"""PCI-Express transfer model and the global-memory-only fallback.

The paper measures the CPU-GPU transfer separately (Fig 6 right): for
every solve, four input arrays (a, b, c, d) travel host-to-device and
one result array (x) travels device-to-host; the transfer dominates the
end-to-end time by 90-95 %.  We model each direction as
``latency + bytes / bandwidth`` -- the standard first-order PCIe model --
with constants calibrated so the 512x512 transfer share lands in the
paper's band.

The paper also notes (§4) that systems too large for shared memory are
solved out of global memory at "roughly 3x performance degradation";
:func:`global_only_penalty` exposes that factor for the fallback path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry.metrics import emit


@dataclass(frozen=True)
class PCIeModel:
    """First-order PCI-Express transfer model.

    Defaults reflect a PCIe 1.1 x16 link as used with a GTX 280 in 2009:
    ~1.3 GB/s effective bandwidth and a sizeable per-call overhead
    (driver launch + DMA setup; the paper's small-size transfer shares
    imply tens of microseconds per cudaMemcpy).
    """

    bandwidth_bytes_per_s: float = 1.3e9
    latency_s: float = 25e-6

    def transfer_ms(self, nbytes: int) -> float:
        """One cudaMemcpy-style call, either direction."""
        ms = (self.latency_s + nbytes / self.bandwidth_bytes_per_s) * 1e3
        emit("pcie.transfers")
        emit("pcie.bytes", nbytes)
        emit("pcie.transfer_ms", ms)
        return ms

    def roundtrip_ms(self, bytes_to_device: int, bytes_to_host: int) -> float:
        """One transfer down plus one back."""
        return (self.transfer_ms(bytes_to_device)
                + self.transfer_ms(bytes_to_host))

    def solver_roundtrip_ms(self, num_systems: int, system_size: int,
                            word_bytes: int = 4) -> float:
        """Transfer cost of one batched tridiagonal solve.

        Four input arrays down (a, b, c, d) and one result array up
        (x), each as its own call -- the five-array layout of §4.
        """
        words = num_systems * system_size
        return 5 * self.transfer_ms(words * word_bytes)


#: Degradation factor for the global-memory-only path (paper §4:
#: "systems of more than 512 equations ... at a cost of roughly 3x
#: performance degradation by using global memory only").
GLOBAL_ONLY_PENALTY = 3.0


def global_only_penalty() -> float:
    return GLOBAL_ONLY_PENALTY
