"""RD kernel: functional equivalence, scan structure, counters."""

import warnings

import numpy as np
import pytest

from repro.kernels.api import run_kernel
from repro.numerics.generators import close_values, diagonally_dominant_fluid
from repro.solvers.rd import recursive_doubling

from .conftest import traced_kernel


@pytest.fixture(scope="module")
def batch():
    return close_values(8, 64, seed=0)


@pytest.fixture(scope="module")
def launch(batch):
    return traced_kernel("rd", batch)


class TestFunctional:
    def test_bit_identical_to_numpy_rd(self, batch, launch):
        x, _res = launch
        np.testing.assert_array_equal(x, recursive_doubling(batch))

    @pytest.mark.parametrize("n", [2, 4, 32, 128])
    def test_sizes(self, n):
        s = close_values(4, n, seed=n)
        x, _res = traced_kernel("rd", s)
        np.testing.assert_array_equal(x, recursive_doubling(s))

    def test_overflow_reproduced_in_kernel(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = diagonally_dominant_fluid(4, 256, seed=1)
            x, _res = traced_kernel("rd", s)
        assert not np.isfinite(x).all()


class TestCounters:
    def test_conflict_free(self, launch):
        _x, res = launch
        for name, pc in res.ledger.phases.items():
            assert pc.conflict_degree == pytest.approx(1.0), name

    def test_steps_log2n_plus_2(self, launch):
        """Table 1: log2 n + 2 steps (setup + scan + evaluation)."""
        _x, res = launch
        assert res.ledger.total().steps == 6 + 2

    def test_scan_active_threads_shrink(self, launch):
        """Hillis-Steele: step s has n - 2^(s-1) active threads --
        "gradually reduced to half" (§4)."""
        _x, res = launch
        actives = [pc.max_active_threads
                   for pc in res.ledger.steps_in_phase("scan")]
        assert actives == [63, 62, 60, 56, 48, 32]

    def test_no_divisions_in_scan(self, launch):
        """Table 1: "no div in major step scan"."""
        _x, res = launch
        assert res.ledger.phases["scan"].divs == 0

    def test_setup_has_divisions(self, launch):
        _x, res = launch
        assert res.ledger.phases["global_load_setup"].divs == 3 * 64

    def test_global_accesses_5n(self, batch, launch):
        _x, res = launch
        assert res.ledger.total().global_words == 5 * batch.n

    def test_shared_footprint_six_rows_plus_broadcast(self, batch, launch):
        _x, res = launch
        assert res.shared_bytes == (6 * batch.n + 1) * 4

    def test_more_shared_traffic_than_pcr(self, batch):
        """Table 1: RD has ~2x PCR's shared accesses."""
        _x1, rd_res = run_kernel("rd", batch)
        _x2, pcr_res = run_kernel("pcr", batch)
        ratio = (rd_res.ledger.total().shared_words
                 / pcr_res.ledger.total().shared_words)
        assert ratio > 0.95
