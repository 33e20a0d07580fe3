"""Streaming (log-linear) histogram: edge cases and oracle agreement.

The streaming :class:`~repro.telemetry.metrics.Histogram` replaced the
exact list-backed implementation; that implementation survives here as
the oracle ``ReferenceHistogram`` and these tests hold the two to the
contract:
identical count/sum/min/max/mean, and quantiles that agree to within
one log-linear bucket (relative error ``<= 1/SUBBUCKETS`` per edge).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import (SUBBUCKETS, Histogram, HistogramSeries,
                                     bucket_index, bucket_lower,
                                     bucket_upper)


def reference_summarize(values: list[float]) -> dict[str, float]:
    """Exact summary over raw samples -- the pre-streaming behaviour."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)

    def quantile(q: float) -> float:
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return {
        "count": len(ordered),
        "sum": sum(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / len(ordered),
        "p50": quantile(0.50),
        "p95": quantile(0.95),
        "p99": quantile(0.99),
    }


class ReferenceHistogram:
    """Exact list-backed histogram of one series: keeps every sample."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    def summary(self) -> dict[str, float]:
        return reference_summarize(self.values)


def close_within_bucket(streaming: float, exact: float) -> bool:
    """True when a streaming quantile is within one bucket of the exact
    one: same sign, relative error bounded by the bucket width."""
    if streaming == exact:
        return True
    if exact == 0.0 or streaming == 0.0:
        return abs(streaming - exact) <= 2.0 ** -60
    if (streaming > 0) != (exact > 0):
        return False
    lo, hi = sorted([abs(streaming), abs(exact)])
    return hi / lo <= 1.0 + 2.0 / SUBBUCKETS


class TestBucketMath:
    def test_zero_has_its_own_bucket(self):
        assert bucket_index(0.0) == 0
        assert bucket_lower(0) == 0.0

    def test_indices_sort_like_values(self):
        values = [-16.0, -1.5, -1e-9, 0.0, 1e-9, 0.75, 1.0, 3.0, 1e12]
        indices = [bucket_index(v) for v in values]
        assert indices == sorted(indices)

    def test_lower_edge_round_trips(self):
        for v in [1.0, 1.5, 2.0, 3.75, 0.001, 12345.6789, 1e-18, 1e18]:
            idx = bucket_index(v)
            assert bucket_lower(idx) <= v < bucket_upper(idx)
            neg = bucket_index(-v)
            assert neg == -idx

    def test_subnormal_magnitudes_clamp_to_smallest_bucket(self):
        # Magnitudes below 2**MIN_EXP share the smallest nonzero bucket;
        # only min/max retain them exactly.
        assert bucket_index(1e-30) == bucket_index(1e-95) == 1
        assert bucket_index(-1e-30) == -1

    def test_infinities_clamp_to_top_bucket(self):
        top = bucket_index(math.inf)
        assert bucket_index(1e308) <= top
        assert bucket_index(-math.inf) == -top


class TestEdgeCases:
    def test_empty_series(self):
        s = HistogramSeries()
        assert s.summary() == {"count": 0}
        assert math.isnan(s.quantile(0.5))
        assert s.cumulative() == []

    def test_single_sample_is_exact(self):
        h = Histogram("h")
        h.observe(3.7)
        s = h.summary()
        assert s["count"] == 1
        assert s["min"] == s["max"] == s["p50"] == s["p99"] == 3.7
        assert s["sum"] == 3.7

    def test_all_equal_values_are_exact(self):
        h = Histogram("h")
        for _ in range(1000):
            h.observe(0.125)
        s = h.summary()
        assert s["p50"] == s["p95"] == s["p99"] == 0.125
        assert s["mean"] == 0.125

    def test_nan_is_dropped(self):
        h = Histogram("h")
        h.observe(float("nan"))
        h.observe(1.0)
        assert h.count() == 1
        assert h.summary()["max"] == 1.0

    def test_negative_and_zero_values(self):
        h = Histogram("h")
        for v in [-4.0, -1.0, 0.0, 1.0, 4.0]:
            h.observe(v)
        s = h.summary()
        assert s["min"] == -4.0 and s["max"] == 4.0
        assert s["p50"] == 0.0

    def test_merge_of_disjoint_bucket_ranges(self):
        lo = HistogramSeries()
        hi = HistogramSeries()
        for v in [1e-6, 2e-6, 4e-6]:
            lo.observe(v)
        for v in [1e6, 2e6, 4e6]:
            hi.observe(v)
        assert not set(lo.counts) & set(hi.counts)
        lo.merge(hi)
        assert lo.count == 6
        assert lo.min == 1e-6 and lo.max == 4e6
        assert lo.quantile(0.0) == pytest.approx(1e-6, rel=1 / SUBBUCKETS)
        assert lo.quantile(0.99) == pytest.approx(4e6, rel=1 / SUBBUCKETS)

    def test_histogram_merge_is_labelwise(self):
        a = Histogram("a")
        b = Histogram("b")
        a.observe(1.0, cls="x")
        b.observe(2.0, cls="x")
        b.observe(3.0, cls="y")
        a.merge(b)
        assert a.count(cls="x") == 2
        assert a.count(cls="y") == 1

    def test_memory_is_bounded_by_buckets_not_samples(self):
        s = HistogramSeries()
        for i in range(50_000):
            s.observe(1.0 + (i % 997) / 997.0)   # all within [1, 2)
        assert s.count == 50_000
        # Everything lands inside one power of two: at most SUBBUCKETS
        # occupied buckets, regardless of sample count.
        assert len(s.counts) <= SUBBUCKETS


# Values within the histogram's log-linear range (|v| in [2**-60, 1e18]
# or exactly zero); tinier magnitudes clamp to the smallest bucket and
# are covered by the explicit edge-case tests above.
finite_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=2.0 ** -60, max_value=1e18),
    st.floats(min_value=-1e18, max_value=-(2.0 ** -60)),
)


class TestOracleAgreement:
    """Property tests against the exact list-backed oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(finite_values, min_size=1, max_size=200))
    def test_quantiles_agree_within_one_bucket(self, values):
        streaming = Histogram("s")
        oracle = ReferenceHistogram()
        for v in values:
            streaming.observe(v)
            oracle.observe(v)
        s = streaming.summary()
        o = oracle.summary()
        assert s["count"] == o["count"]
        assert s["min"] == o["min"] and s["max"] == o["max"]
        assert s["sum"] == pytest.approx(o["sum"], rel=1e-9, abs=1e-9)
        for q in ("p50", "p95", "p99"):
            assert close_within_bucket(s[q], o[q]), \
                f"{q}: streaming {s[q]!r} vs exact {o[q]!r}"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_values, min_size=1, max_size=100),
           st.lists(finite_values, min_size=1, max_size=100))
    def test_merge_equals_combined_observation(self, xs, ys):
        merged = HistogramSeries()
        for v in xs:
            merged.observe(v)
        other = HistogramSeries()
        for v in ys:
            other.observe(v)
        merged.merge(other)

        combined = HistogramSeries()
        for v in xs + ys:
            combined.observe(v)
        assert merged.counts == combined.counts
        assert merged.count == combined.count
        assert merged.min == combined.min and merged.max == combined.max
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == combined.quantile(q)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_values, min_size=1, max_size=200))
    def test_quantile_lies_within_observed_range(self, values):
        s = HistogramSeries()
        for v in values:
            s.observe(v)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            est = s.quantile(q)
            assert s.min <= est <= s.max

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_values, min_size=1, max_size=200))
    def test_cumulative_is_monotonic_and_totals(self, values):
        s = HistogramSeries()
        for v in values:
            s.observe(v)
        cum = s.cumulative()
        counts = [c for _edge, c in cum]
        assert counts == sorted(counts)
        assert counts[-1] == s.count
