"""End-to-end checks of the paper's headline claims at 512x512.

Each test names the paper section/figure whose claim it verifies.
Counters are per block, so two simulated blocks stand in for the 512
the timings are priced over (``modeled_grid_timing``).
"""

import warnings

import pytest

from repro import paper
from repro.analysis.autotune import sweep_switch_point
from repro.analysis.cpumodel import cpu_times, speedup
from repro.analysis.timing import compare_solvers, modeled_grid_timing
from repro.gpusim.transfer import PCIeModel
from repro.numerics.generators import close_values, diagonally_dominant_fluid


@pytest.fixture(scope="module")
def timings_512():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {name: modeled_grid_timing(
                    name, paper.N, paper.NUM_SYSTEMS,
                    intermediate_size=paper.BEST_M.get(name)).solver_ms
                for name in paper.TOTAL_MS}


class TestHeadlines:
    def test_hybrid_improvements_section1(self, timings_512):
        """§1: "hybrid algorithms improve PCR, RD and CR by 21%, 31%
        and 61% respectively" -- we require at least half of each
        published gain and the right ordering."""
        t = timings_512
        assert 1 - t["cr_pcr"] / t["pcr"] >= 0.10
        assert 1 - t["cr_rd"] / t["rd"] >= 0.15
        assert 1 - t["cr_pcr"] / t["cr"] >= 0.45

    def test_fig6_ordering_512(self, timings_512):
        t = timings_512
        assert t["cr_pcr"] < t["cr_rd"] < t["pcr"] < t["rd"] < t["cr"]

    def test_fig6_hybrids_lose_at_small_sizes(self):
        """§5.2: hybrids "perform worse than RD and PCR for the 64x64
        and 128x128 cases"."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for n in (64, 128):
                # The paper's grids are square: n systems of n unknowns.
                s = diagonally_dominant_fluid(n, n, seed=n)
                r = compare_solvers(
                    s, intermediate_sizes={"cr_pcr": n // 2,
                                           "cr_rd": n // 4})
                assert r["pcr"].solver_ms < r["cr_pcr"].solver_ms, n

    def test_fig7_speedups(self, timings_512):
        """Fig 7: ~12.5x over the MT CPU solver, ~28x over LAPACK."""
        best_gpu = min(timings_512.values())
        cpu = cpu_times(512, 512)
        assert speedup(best_gpu, cpu.mt_ms) == pytest.approx(
            paper.SPEEDUP[512], rel=0.25)
        assert speedup(best_gpu, cpu.gep_ms) == pytest.approx(
            paper.LAPACK_SPEEDUP, rel=0.25)

    def test_fig7_transfer_inclusive_speedup_collapses(self, timings_512):
        """Fig 7 right: including PCIe transfer drops the 512x512
        speedup to ~1.2x."""
        transfer = PCIeModel().solver_roundtrip_ms(512, 512)
        best_gpu = min(timings_512.values()) + transfer
        cpu = cpu_times(512, 512)
        s = speedup(best_gpu, cpu.best()[1])
        assert 0.8 <= s <= 1.8

    def test_fig17_switch_points(self):
        """Fig 17: best m far above warp size; CR+RD capped at 128."""
        s = diagonally_dominant_fluid(2, 512, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pcr_sweep = sweep_switch_point(s, "pcr")
            rd_sweep = sweep_switch_point(s, "rd")
        assert pcr_sweep.best().intermediate_size in (128, 256)
        assert rd_sweep.best().intermediate_size == 128

    def test_pcr_half_of_cr_section532(self, timings_512):
        ratio = timings_512["pcr"] / timings_512["cr"]
        assert 0.35 <= ratio <= 0.65

    def test_rd_slightly_slower_than_pcr_section533(self, timings_512):
        assert 1.0 < timings_512["rd"] / timings_512["pcr"] < 1.4


class TestFig18Accuracy:
    """The two accuracy experiments of §5.4, float32 throughout."""

    @pytest.fixture(scope="class")
    def solvers(self):
        from repro.solvers.api import SOLVERS
        return ["gep", "thomas", "cr", "pcr", "cr_pcr", "rd", "cr_rd"]

    def test_dominant_case(self, solvers):
        """Diagonally dominant: GEP/GE/CR/PCR/CR+PCR accurate; RD and
        CR+RD overflow."""
        from repro.numerics.residual import evaluate_accuracy
        from repro.solvers.api import SOLVERS
        s = diagonally_dominant_fluid(16, 512, seed=2)
        results = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name in solvers:
                x = SOLVERS[name](s,
                                  intermediate_size=paper.BEST_M.get(name))
                results[name] = evaluate_accuracy(name, s, x)
        for good in ("gep", "thomas", "cr", "pcr", "cr_pcr"):
            assert not results[good].overflowed, good
            assert results[good].median_residual < 1e-3, good
        for bad in ("rd", "cr_rd"):
            assert results[bad].overflow_fraction > 0.5, bad

    def test_close_values_case(self, solvers):
        """Close values in rows: nobody overflows; everybody but GEP is
        less accurate; GEP best (it pivots)."""
        from repro.numerics.residual import evaluate_accuracy
        from repro.solvers.api import SOLVERS
        s = close_values(16, 512, seed=3)
        results = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for name in solvers:
                x = SOLVERS[name](s,
                                  intermediate_size=paper.BEST_M.get(name))
                results[name] = evaluate_accuracy(name, s, x)
        for name in solvers:
            assert results[name].overflow_fraction < 0.2, name
        gep_med = results["gep"].median_residual
        for name in ("cr", "pcr", "rd"):
            assert results[name].median_residual >= gep_med * 0.5, name

    def test_dominant_residuals_much_better_than_close_values(self):
        from repro.numerics.residual import evaluate_accuracy
        from repro.solvers.api import SOLVERS
        dom = diagonally_dominant_fluid(8, 512, seed=4)
        close = close_values(8, 512, seed=5)
        r_dom = evaluate_accuracy("cr", dom, SOLVERS["cr"](dom))
        r_close = evaluate_accuracy("cr", close, SOLVERS["cr"](close))
        assert r_dom.median_residual < r_close.median_residual
