"""PCIe transfer model."""

import pytest

from repro import paper
from repro.gpusim.transfer import GLOBAL_ONLY_PENALTY, PCIeModel


class TestPCIe:
    def test_latency_floor(self):
        m = PCIeModel()
        assert m.transfer_ms(0) == pytest.approx(m.latency_s * 1e3)

    def test_bandwidth_term(self):
        m = PCIeModel(bandwidth_bytes_per_s=1e9, latency_s=0.0)
        assert m.transfer_ms(1_000_000) == pytest.approx(1.0)

    def test_solver_roundtrip_counts_five_arrays(self):
        m = PCIeModel(bandwidth_bytes_per_s=1e9, latency_s=0.0)
        ms = m.solver_roundtrip_ms(100, 100)
        # 4 arrays down + 1 up = 5 * 100 * 100 * 4 bytes
        assert ms == pytest.approx(5 * 100 * 100 * 4 / 1e9 * 1e3)

    def test_paper_transfer_share(self):
        """§5.2: transfer dominates end-to-end time by 90-95 % at the
        512x512 size with the best solver (CR+PCR's Fig 6 total)."""
        m = PCIeModel()
        transfer = m.solver_roundtrip_ms(512, 512)
        share = transfer / (transfer + paper.TOTAL_MS["cr_pcr"])
        assert 0.88 <= share <= 0.96

    def test_global_only_penalty_documented_value(self):
        assert GLOBAL_ONLY_PENALTY == pytest.approx(3.0)
