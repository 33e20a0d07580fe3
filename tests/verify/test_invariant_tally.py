"""Property tests for the invariant checker's vectorized tally.

``repro.verify.invariants._Tally`` re-derives bank-conflict cycles and
coalesced transactions independently of the simulator.  Its hot
methods were vectorized (np.unique / reduceat encodings); the original
per-group loops live here as the oracles ``reference_bank_cycles`` /
``reference_transactions`` and the two implementations are held equal
on random address patterns, including the degenerate shapes the
encodings must survive (empty, single lane, duplicate addresses,
sparse lane ids, address 0 spans).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpusim.device import GTX280, TESLA_C1060
from repro.verify.invariants import _Tally


def reference_bank_cycles(t: _Tally, addrs: np.ndarray,
                          lanes: np.ndarray) -> tuple[int, int]:
    """Per-half-warp loop oracle for ``_Tally._bank_cycles``."""
    cycles = halfwarps = 0
    for g in np.unique(lanes // t.group):
        group = addrs[lanes // t.group == g]
        halfwarps += 1
        worst = 1
        banks = group % t.banks
        for b in np.unique(banks):
            worst = max(worst, np.unique(group[banks == b]).size)
        cycles += int(worst)
    return cycles, halfwarps


def reference_transactions(t: _Tally, idx: np.ndarray) -> int:
    """Chunked loop oracle for ``_Tally._transactions``."""
    total = 0
    for start in range(0, idx.size, t.group):
        total += int(np.unique(idx[start:start + t.group]
                               // t.seg_words).size)
    return total

_addr_lists = st.lists(st.integers(min_value=0, max_value=4095),
                       min_size=1, max_size=64)


class TestBankCycles:
    @settings(max_examples=200, deadline=None)
    @given(addrs=_addr_lists, data=st.data())
    def test_matches_reference_on_sparse_lanes(self, addrs, data):
        """Lane ids drawn independently of addresses: half-warp
        grouping keys on lane id, not array position."""
        lanes = data.draw(st.lists(
            st.integers(min_value=0, max_value=511),
            min_size=len(addrs), max_size=len(addrs), unique=True))
        t = _Tally(GTX280)
        a = np.asarray(addrs, dtype=np.int64)
        l = np.asarray(sorted(lanes), dtype=np.int64)
        assert t._bank_cycles(a, l) == reference_bank_cycles(t, a, l)

    @settings(max_examples=100, deadline=None)
    @given(addrs=_addr_lists)
    def test_matches_reference_on_prefix_lanes(self, addrs):
        t = _Tally(GTX280)
        a = np.asarray(addrs, dtype=np.int64)
        l = np.arange(a.size, dtype=np.int64)
        assert t._bank_cycles(a, l) == reference_bank_cycles(t, a, l)

    def test_empty(self):
        t = _Tally(GTX280)
        empty = np.empty(0, dtype=np.int64)
        assert t._bank_cycles(empty, empty) == (0, 0)

    def test_all_zero_addresses(self):
        """span = max + 1 must not collapse when every address is 0."""
        t = _Tally(GTX280)
        a = np.zeros(33, dtype=np.int64)
        l = np.arange(33, dtype=np.int64)
        assert t._bank_cycles(a, l) == reference_bank_cycles(t, a, l) \
            == (3, 3)

    def test_16_way_conflict(self):
        """All 16 lanes of one half-warp on distinct words of one
        bank: the paper's worst case serializes into 16 cycles."""
        t = _Tally(GTX280)
        a = np.arange(16, dtype=np.int64) * t.banks
        l = np.arange(16, dtype=np.int64)
        assert t._bank_cycles(a, l) == (16, 1)

    @settings(max_examples=50, deadline=None)
    @given(addrs=_addr_lists)
    def test_other_device_geometry(self, addrs):
        t = _Tally(TESLA_C1060)
        a = np.asarray(addrs, dtype=np.int64)
        l = np.arange(a.size, dtype=np.int64)
        assert t._bank_cycles(a, l) == reference_bank_cycles(t, a, l)


class TestTransactions:
    @settings(max_examples=200, deadline=None)
    @given(idx=_addr_lists)
    def test_matches_reference(self, idx):
        t = _Tally(GTX280)
        i = np.asarray(idx, dtype=np.int64)
        assert t._transactions(i) == reference_transactions(t, i)

    def test_empty(self):
        assert _Tally(GTX280)._transactions(
            np.empty(0, dtype=np.int64)) == 0

    def test_contiguous_half_warp_is_one_transaction(self):
        t = _Tally(GTX280)
        i = np.arange(16, dtype=np.int64)
        assert t._transactions(i) == 1

    def test_strided_half_warp_is_sixteen(self):
        """Stride 16 words puts every lane in its own 64-byte
        segment -- fully uncoalesced."""
        t = _Tally(GTX280)
        i = np.arange(16, dtype=np.int64) * t.seg_words
        assert t._transactions(i) == 16

    def test_duplicate_addresses_coalesce(self):
        t = _Tally(GTX280)
        i = np.zeros(16, dtype=np.int64)
        assert t._transactions(i) == 1
