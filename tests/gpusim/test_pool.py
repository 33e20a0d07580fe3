"""`derive_seed`: the determinism root of fuzzing and fault plans."""

import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.pool import derive_seed, derive_seeds
from repro.telemetry import Collector


def test_deterministic_across_calls():
    assert derive_seed(1, 2, "x") == derive_seed(1, 2, "x")


def test_fits_in_uint32():
    for parts in ((0,), (2**63, "job"), ("a", "b", "c", 7)):
        s = derive_seed(*parts)
        assert 0 <= s < 2**32


def test_order_sensitive():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed("gpu0", 3) != derive_seed(3, "gpu0")


def test_arity_sensitive():
    assert derive_seed(1) != derive_seed(1, 0)
    assert derive_seed("job") != derive_seed("job", "job")


def test_no_collisions_over_a_realistic_grid():
    """Every (seed, iteration, purpose) triple the fuzzer derives must
    map to a distinct stream seed -- a collision would silently repeat
    a 'random' case."""
    seeds = {derive_seed(s, i, purpose)
             for s, i, purpose in itertools.product(
                 range(8), range(64), ("fuzz-case", "data", "fault"))}
    assert len(seeds) == 8 * 64 * 3


def test_distinct_string_parts_mix_differently():
    labels = ["gpu0", "gpu1", "gpu2", "cpu", "job-a", "job-b"]
    assert len({derive_seed(lab, 0) for lab in labels}) == len(labels)


def test_usable_as_generator_seed():
    rng = np.random.default_rng(derive_seed("smoke", 1))
    x = rng.standard_normal(4)
    y = np.random.default_rng(derive_seed("smoke", 1)).standard_normal(4)
    assert np.array_equal(x, y)


def oracle(*parts):
    """``derive_seed`` as numpy's ``SeedSequence`` computes it."""
    entropy = [len(parts)] + [
        zlib.crc32(p.encode()) if isinstance(p, str) else p for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


PARTS = st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                  st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**96 - 1),
                  st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(PARTS, max_size=7))
def test_matches_seedsequence_oracle(parts):
    """Ints of 1-3 words, zeros, strings, and no parts at all."""
    assert derive_seed(*parts) == oracle(*parts)
    assert type(derive_seed(*parts)) is int


def test_no_parts_and_negative_parts():
    assert derive_seed() == oracle()
    with pytest.raises(ValueError):
        derive_seed(-1)


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32 - 1),
                      st.integers(2**64, 2**80)),
       kind=st.sampled_from(["span", "event"]),
       stop=st.one_of(st.just(2**32), st.integers(2, 2**32),
                      st.integers(2**32 + 64, 2**64)),
       size=st.integers(1, 48))
def test_block_equals_scalar_elementwise(seed, kind, stop, size):
    """Blocks that end at 2**32, start past it, and seeds >= 2**64."""
    start = max(stop - size, 2**32 if stop > 2**32 else 0)
    block = range(start, stop)
    assert derive_seeds(seed, kind, counters=block).tolist() == [
        derive_seed(seed, kind, c) for c in block]


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**64 - 1])
def test_full_block_matches_oracle(seed):
    block = range(1, 1025)
    assert derive_seeds(seed, "span", counters=block).tolist() == [
        oracle(seed, "span", c) for c in block]


def test_block_must_not_cross_a_word_boundary():
    with pytest.raises(ValueError):
        derive_seeds(7, "span", counters=range(2**32 - 1, 2**32 + 1))


def test_collector_ids_come_from_derive_seed():
    col = Collector(seed=7)
    assert [col._new_span_id() for _ in range(3)] == [
        derive_seed(7, "span", c) for c in (1, 2, 3)]
    assert col._new_id("event") == derive_seed(7, "event", 1)


def test_collector_blocks_stop_at_two_to_the_32():
    col = Collector(seed=7)
    col._counters["event"] = 2**32 - 3
    assert [col._new_id("event") for _ in range(6)] == [
        derive_seed(7, "event", c) for c in range(2**32 - 2, 2**32 + 4)]


def test_span_id_collision_bumps_the_salt():
    col = Collector(seed=7)
    col._by_id[derive_seed(7, "span", 1)] = None    # force a collision
    assert col._new_span_id() == derive_seed(7, "span", 1, 1)
    assert col._new_span_id() == derive_seed(7, "span", 2)
