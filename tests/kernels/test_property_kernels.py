"""Property-based tests across the kernel layer.

The central invariant: for every solver, size, and switch point, the
instrumented kernel and the vectorised NumPy solver execute the same
float32 arithmetic -- results are bit-identical, and the counters obey
basic conservation laws (global traffic = 5n words, steps match the
closed forms, conflict degrees bounded by the bank count).
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kernels.api import run_kernel
from repro.numerics.generators import close_values, diagonally_dominant_fluid
from repro.solvers.api import SOLVERS

from .conftest import traced_kernel

sizes = st.sampled_from([4, 8, 16, 32, 64])
batches = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=10**6)


def _gen(name, S, n, seed):
    gen = close_values if "rd" in name else diagonally_dominant_fluid
    return gen(S, n, seed=seed)


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["cr", "pcr", "rd"]), n=sizes, S=batches,
       seed=seeds)
def test_kernel_equals_numpy_everywhere(name, n, S, seed):
    s = _gen(name, S, n, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        x_k, _res = traced_kernel(name, s)
        x_np = SOLVERS[name](s, intermediate_size=None)
    np.testing.assert_array_equal(x_k, x_np)


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 16, 32, 64]), seed=seeds,
       m_exp=st.integers(min_value=1, max_value=5))
def test_hybrid_kernel_equals_numpy_for_any_switch_point(n, seed, m_exp):
    m = min(2 ** m_exp, n)
    s = diagonally_dominant_fluid(2, n, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        x_k, _res = traced_kernel("cr_pcr", s, intermediate_size=m)
        x_np = SOLVERS["cr_pcr"](s, intermediate_size=m)
    np.testing.assert_array_equal(x_k, x_np)


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(["cr", "pcr", "rd"]), n=sizes, seed=seeds)
def test_counter_conservation_laws(name, n, seed):
    s = _gen(name, 2, n, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _x, res = run_kernel(name, s)
    total = res.ledger.total()
    # Global traffic: 4n read + n written, always.
    assert total.global_words == 5 * n
    # Conflict degrees bounded by the bank count.
    for pc in res.ledger.phases.values():
        assert pc.conflict_degree <= res.device.shared_mem_banks
    # Steps match the closed form.
    expected = {"cr": 2 * int(np.log2(n)) - 1,
                "pcr": int(np.log2(n)),
                "rd": int(np.log2(n)) + 2}[name]
    assert total.steps == expected
    # Step records sum to phase totals.
    for phase, pcs in ((p, res.ledger.steps_in_phase(p))
                       for p in res.ledger.phase_names()):
        if pcs:
            assert sum(pc.flops for pc in pcs) == \
                res.ledger.phases[phase].flops


@settings(max_examples=15, deadline=None)
@given(n=sizes, seed=seeds)
def test_counters_data_independent(n, seed):
    """Two different batches of the same shape produce identical
    traces -- cost is a function of the address pattern only."""
    s1 = diagonally_dominant_fluid(2, n, seed=seed)
    s2 = diagonally_dominant_fluid(2, n, seed=seed + 1)
    _x, r1 = run_kernel("cr", s1)
    _x, r2 = run_kernel("cr", s2)
    assert r1.ledger.total().as_dict() == r2.ledger.total().as_dict()


@settings(max_examples=10, deadline=None)
@given(n=sizes, S1=batches, S2=batches, seed=seeds)
def test_per_block_counters_independent_of_batch_size(n, S1, S2, seed):
    """Counters are per block: grids of different sizes trace equal."""
    a = diagonally_dominant_fluid(S1, n, seed=seed)
    b = diagonally_dominant_fluid(S2, n, seed=seed)
    _x, ra = run_kernel("pcr", a)
    _x, rb = run_kernel("pcr", b)
    assert ra.ledger.total().as_dict() == rb.ledger.total().as_dict()
