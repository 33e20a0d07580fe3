"""CPU baseline model: the Fig 7 speedup structure."""

import pytest

from repro import paper
from repro.analysis.cpumodel import (cpu_times, ge_ms, gep_ms, mt_ms,
                                     speedup)


class TestScaling:
    def test_ge_linear_in_work(self):
        assert ge_ms(128, 128) == pytest.approx(4 * ge_ms(64, 64) * 4 / 4)
        assert ge_ms(512, 512) == pytest.approx(64 * ge_ms(64, 64))

    def test_gep_slower_than_ge(self):
        assert gep_ms(512, 512) > ge_ms(512, 512)

    def test_mt_beats_ge_only_at_large_sizes(self):
        """§5.2: "the problem size needs to be large for the MT solver
        to outperform a single-threaded solver"."""
        assert mt_ms(64, 64) > ge_ms(64, 64)
        assert mt_ms(256, 256) > ge_ms(256, 256)
        assert mt_ms(512, 512) < ge_ms(512, 512)


class TestPaperAnnotations:
    def test_best_cpu_at_512_is_mt(self):
        t = cpu_times(512, 512)
        assert t.best()[0] == "mt"

    def test_12x_speedup_at_512(self):
        """Fig 7: 12.5x best-GPU over best-CPU at 512x512 with the
        hybrid at its Fig 6 total."""
        t = cpu_times(512, 512)
        s = speedup(paper.TOTAL_MS["cr_pcr"], t.best()[1])
        assert s == pytest.approx(paper.SPEEDUP[512], rel=0.15)

    def test_28x_over_lapack_at_512(self):
        """§1/§6: 28x over the (GEP) LAPACK solver."""
        s = speedup(paper.TOTAL_MS["cr_pcr"], gep_ms(512, 512))
        assert s == pytest.approx(paper.LAPACK_SPEEDUP, rel=0.15)

    def test_2_7x_at_64(self):
        """Fig 7 annotation at 64x64 (best GPU ~ 0.047 ms)."""
        t = cpu_times(64, 64)
        s = speedup(0.047, t.best()[1])
        assert s == pytest.approx(paper.SPEEDUP[64], rel=0.25)

    def test_17x_at_256(self):
        """Fig 7 annotation at 256x256 (best GPU ~ 0.117 ms)."""
        t = cpu_times(256, 256)
        s = speedup(0.117, t.best()[1])
        assert s == pytest.approx(paper.SPEEDUP[256], rel=0.25)

    def test_transfer_kills_speedup(self):
        """Fig 7 right: with PCIe transfer the 512x512 speedup drops to
        ~1.2x."""
        from repro.gpusim.transfer import PCIeModel
        transfer = PCIeModel().solver_roundtrip_ms(512, 512)
        t = cpu_times(512, 512)
        s = speedup(paper.TOTAL_MS["cr_pcr"] + transfer, t.best()[1])
        assert 0.8 <= s <= 1.7
