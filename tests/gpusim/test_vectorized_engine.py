"""Property suite holding the vectorized engine bitwise-equal to the
per-lane reference oracle.

The contract under test (see ``docs/simulator.md``): for any kernel and
any launch geometry, ``launch(...)`` on the default
:class:`~repro.gpusim.engine.VectorizedEngine` and
:func:`~repro.gpusim.executor._reference_execute` (per-lane, per-block
Python loops, no memoization) produce

* bitwise-identical :class:`~repro.gpusim.counters.CounterLedger`\\ s
  (every integer counter *and* every float latency accumulator),
* bitwise-identical per-step records, and
* bitwise-identical float32 outputs and solutions.

Straddling/duplicated lane index patterns and divergent (non-prefix,
non-contiguous) active sets are exercised explicitly -- those are the
cases where a batched np.unique/reduceat implementation can silently
disagree with the per-lane definition -- and so are the affine,
clamped and multi-run patterns the vectorized engine moves by slices.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim import GTX280, TESLA_C1060, ledgers_equal
from repro.gpusim.engine import REFERENCE, VECTORIZED
from repro.gpusim.estimator import characterize
from repro.gpusim.executor import _reference_execute, launch
from repro.kernels.api import (PLANNED_KERNELS, LaunchPlan, plan_launch,
                               run_kernel)
from repro.numerics.generators import diagonally_dominant_fluid

SOLVERS = ("cr", "pcr", "rd", "cr_pcr", "cr_rd")

#: The rest of the planned kernels as ``(name, layout)``: the ablation
#: kernels (mostly global-memory data paths) and per-thread Thomas in
#: both batch layouts.
OTHER_KERNELS = [(name, "sequential")
                 for name in sorted(PLANNED_KERNELS - set(SOLVERS)
                                    - {"thomas"})]
OTHER_KERNELS += [("thomas", "sequential"), ("thomas", "interleaved")]

#: Shared-array words used by the synthetic divergence kernel.
_WORDS = 96


def _assert_bitwise_equal(res_a, res_b):
    """Ledger, step records, and shared/thread geometry, exactly."""
    assert ledgers_equal(res_a.ledger, res_b.ledger) == []
    # ledgers_equal compares phase totals and step *counts*; the
    # engine contract is stronger -- every per-step snapshot matches
    # field-for-field, floats included (dataclass __eq__ is exact).
    assert res_a.ledger.step_records == res_b.ledger.step_records
    assert res_a.threads_per_block == res_b.threads_per_block
    assert res_a.shared_bytes == res_b.shared_bytes


def _run_both(method, n, num_systems, seed, device=GTX280, layout=None):
    # Raw launches of the plan: both sides record their own trace.
    plan = plan_launch(method, n, num_systems, device=device, layout=layout)
    systems = diagonally_dominant_fluid(num_systems, n, seed=seed)
    args = dict(num_blocks=plan.num_blocks,
                threads_per_block=plan.threads_per_block, device=device,
                **dict(plan.kwargs))

    gmem_vec = plan.load(systems)
    vec = launch(plan.kernel, gmem=gmem_vec, **args)
    gmem_ref = plan.load(systems)
    ref = _reference_execute(plan.kernel, gmem=gmem_ref, **args)
    return vec, ref, gmem_vec, gmem_ref


def _assert_solutions_bitwise_equal(gmem_vec, gmem_ref):
    sol_vec, sol_ref = gmem_vec.solution(), gmem_ref.solution()
    assert sol_vec.dtype == sol_ref.dtype == np.float32
    # Bitwise, not just value-equal: NaN placement and signed zeros
    # must agree too.
    assert np.array_equal(sol_vec.view(np.uint32), sol_ref.view(np.uint32))


_cases = dict(n_exp=st.integers(min_value=2, max_value=6),
              num_systems=st.integers(min_value=1, max_value=3),
              seed=st.integers(min_value=0, max_value=2**16))


class TestSolverEquivalence:
    """Every planned kernel, random sizes and batches: the five
    solvers at 50 cases each, the other kernels at 10 each (310
    cases)."""

    @pytest.mark.parametrize("method", SOLVERS)
    @settings(max_examples=50, deadline=None)
    @given(**_cases)
    def test_bitwise_equal(self, method, n_exp, num_systems, seed):
        vec, ref, gmem_vec, gmem_ref = _run_both(method, 2 ** n_exp,
                                                 num_systems, seed)
        _assert_bitwise_equal(vec, ref)
        _assert_solutions_bitwise_equal(gmem_vec, gmem_ref)

    @pytest.mark.parametrize("method,layout", OTHER_KERNELS,
                             ids=["-".join(k) for k in OTHER_KERNELS])
    @settings(max_examples=10, deadline=None)
    @given(**_cases)
    def test_bitwise_equal_other_kernels(self, method, layout, n_exp,
                                         num_systems, seed):
        vec, ref, gmem_vec, gmem_ref = _run_both(
            method, 2 ** n_exp, num_systems, seed, layout=layout)
        _assert_bitwise_equal(vec, ref)
        _assert_solutions_bitwise_equal(gmem_vec, gmem_ref)

    def test_every_planned_kernel_covered(self):
        assert set(SOLVERS) | {name for name, _ in OTHER_KERNELS} \
            == PLANNED_KERNELS

    def test_other_device_spec(self):
        vec, ref, _gv, _gr = _run_both("cr", 64, 2, 7, device=TESLA_C1060)
        _assert_bitwise_equal(vec, ref)


def _divergent_kernel(ctx, lanes, idx, scale):
    """Synthetic kernel exercising non-contiguous active sets and
    duplicate/straddling shared index patterns under both engines."""
    lanes = np.asarray(lanes, dtype=np.int64)
    idx = np.asarray(idx, dtype=np.int64)
    arr = ctx.shared(_WORDS)
    out = ctx.shared(_WORDS)
    with ctx.phase("seed"):
        with ctx.step():
            full = ctx.set_active(ctx.threads_per_block)
            ctx.sstore(arr, full % _WORDS,
                       np.broadcast_to((full % 7).astype(np.float32),
                                       (ctx.num_blocks, full.size)))
            ctx.sync()
    with ctx.phase("divergent"):
        with ctx.step():
            active = ctx.set_active(lanes)
            vals = ctx.sload(arr, idx)
            ctx.ops(4, divs=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = (vals * np.float32(scale) + np.float32(1.0) / vals
                        + active.astype(np.float32))
            # Duplicate idx entries make this a write race; both
            # engines must resolve it identically (last lane wins).
            # The lane term gives racing lanes distinct values.
            ctx.sstore(out, idx, vals)
            ctx.sync()
    with ctx.phase("drain"):
        with ctx.step():
            full = ctx.set_active(ctx.threads_per_block)
            return ctx.sload(out, full % _WORDS)


def _assert_divergent_equal(lanes, idx, num_blocks, scale):
    kwargs = dict(num_blocks=num_blocks, threads_per_block=64,
                  check_contiguous_active=False,
                  lanes=tuple(lanes), idx=tuple(idx), scale=scale)
    vec = launch(_divergent_kernel, **kwargs)
    ref = _reference_execute(_divergent_kernel, **kwargs)
    _assert_bitwise_equal(vec, ref)
    assert np.array_equal(
        np.asarray(vec.outputs, dtype=np.float32).view(np.uint32),
        np.asarray(ref.outputs, dtype=np.float32).view(np.uint32))


# Lane sets are drawn non-contiguous and unsorted-free (set_active
# takes ascending unique ids); idx patterns may repeat words and
# straddle half-warp boundaries arbitrarily.
_lane_sets = st.lists(st.integers(min_value=0, max_value=63),
                      min_size=1, max_size=48, unique=True).map(sorted)


class TestDivergentLaneSets:
    """Arbitrary active subsets with duplicate index patterns: 150
    cases."""

    @settings(max_examples=150, deadline=None)
    @given(lanes=_lane_sets,
           data=st.data(),
           num_blocks=st.integers(min_value=1, max_value=3),
           scale=st.floats(min_value=-4.0, max_value=4.0, width=32))
    def test_bitwise_equal(self, lanes, data, num_blocks, scale):
        idx = data.draw(st.lists(
            st.integers(min_value=0, max_value=_WORDS - 1),
            min_size=len(lanes), max_size=len(lanes)))
        _assert_divergent_equal(lanes, idx, num_blocks, scale)

    def test_half_warp_straddle(self):
        """A lane set crossing the 16-lane conflict-resolution boundary
        with a pattern whose duplicates land in one bank."""
        lanes = [14, 15, 16, 17, 40]
        idx = [0, 16, 16, 32, 0]       # bank 0 collisions across groups
        kwargs = dict(num_blocks=2, threads_per_block=64,
                      check_contiguous_active=False,
                      lanes=tuple(lanes), idx=tuple(idx), scale=1.5)
        vec = launch(_divergent_kernel, **kwargs)
        ref = _reference_execute(_divergent_kernel, **kwargs)
        _assert_bitwise_equal(vec, ref)


def _starts(step, k):
    """The lowest and highest starts keeping ``start + step *
    arange(k)`` inside the array."""
    span = step * (k - 1)
    return -min(0, span), _WORDS - 1 - max(0, span)


@st.composite
def _affine_pattern(draw, k):
    """Any start, a positive, negative or zero step."""
    step = draw(st.integers(min_value=-6, max_value=6))
    if k > 1 and abs(step) * (k - 1) >= _WORDS:
        step = int(np.sign(step)) * ((_WORDS - 1) // (k - 1))
    start = draw(st.integers(*_starts(step, k)))
    return start + step * np.arange(k)


@st.composite
def _clamped_pattern(draw, k):
    """An affine pattern clamped at one or both ends, as PCR and RD
    clamp ``lane - stride`` at 0 and ``lane + stride`` at ``n - 1``;
    the bounds are words of the pattern, so the clamps cut into it."""
    p = draw(_affine_pattern(k))
    i, j = (p[draw(st.integers(min_value=0, max_value=k - 1))]
            for _ in range(2))
    clamp = draw(st.sampled_from(["maximum", "minimum", "clip"]))
    if clamp == "maximum":
        return np.maximum(p, i)
    if clamp == "minimum":
        return np.minimum(p, i)
    return np.clip(p, min(i, j), max(i, j))


@st.composite
def _multi_run_pattern(draw, k):
    """Three or more affine runs back to back (the fallback form)."""
    cuts = sorted(draw(st.lists(st.integers(min_value=1, max_value=k - 1),
                                min_size=2, max_size=4, unique=True)))
    bounds = [0, *cuts, k]
    return np.concatenate([draw(_affine_pattern(b - a))
                           for a, b in zip(bounds, bounds[1:])])


@st.composite
def _duplicate_run_pattern(draw, k):
    """An affine run repeated (in part) to fill the lanes: every word
    of the repeat races, and the last lane must win."""
    run = draw(_affine_pattern(draw(st.integers(min_value=1,
                                                max_value=k - 1))))
    return np.resize(run, k)


@st.composite
def _structured_case(draw, kind):
    if kind == "single":
        return [draw(st.integers(min_value=0, max_value=63))], \
            [draw(st.integers(min_value=0, max_value=_WORDS - 1))]
    min_k = {"multi_run": 3, "duplicate_run": 2}.get(kind, 1)
    lanes = draw(st.one_of(
        st.integers(min_value=min_k, max_value=64).map(range),
        _lane_sets.filter(lambda l: len(l) >= min_k)))
    make = {"affine": _affine_pattern, "clamped": _clamped_pattern,
            "multi_run": _multi_run_pattern,
            "duplicate_run": _duplicate_run_pattern}[kind]
    return list(lanes), draw(make(len(lanes))).tolist()


class TestStructuredPatterns:
    """The shapes the vectorized engine moves by slices -- affine runs
    with any step, PCR/RD's clamped patterns, single lanes -- and the
    3+-run fallback, on prefix and divergent lane sets, against the
    oracle: 200 cases."""

    @pytest.mark.parametrize("kind", ["affine", "clamped", "single",
                                      "multi_run", "duplicate_run"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           num_blocks=st.integers(min_value=1, max_value=3),
           scale=st.floats(min_value=-4.0, max_value=4.0, width=32))
    def test_bitwise_equal(self, kind, data, num_blocks, scale):
        lanes, idx = data.draw(_structured_case(kind))
        assert 0 <= min(idx) and max(idx) < _WORDS
        _assert_divergent_equal(lanes, idx, num_blocks, scale)


class TestShiftInvariance:
    """The memo keys rest on two theorems; check them against the
    oracle's uncached costs: 100 cases."""

    @settings(max_examples=50, deadline=None)
    @given(pattern=st.lists(st.integers(min_value=0, max_value=255),
                            min_size=1, max_size=32),
           shift=st.integers(min_value=0, max_value=512))
    def test_shared_cost_shift_invariant(self, pattern, shift):
        idx = np.asarray(pattern, dtype=np.int64)
        info = REFERENCE.prefix_info(idx.size, GTX280)
        base = REFERENCE.shared_cost(idx, info, GTX280)
        shifted = REFERENCE.shared_cost(idx + shift, info, GTX280)
        assert base == shifted
        # And the vectorized memo (keyed canonically) agrees with the
        # oracle on the shifted pattern.
        assert VECTORIZED.shared_cost(idx + shift, info, GTX280) == shifted

    @settings(max_examples=50, deadline=None)
    @given(pattern=st.lists(st.integers(min_value=0, max_value=255),
                            min_size=1, max_size=32),
           segments=st.integers(min_value=0, max_value=64))
    def test_global_cost_segment_shift_invariant(self, pattern, segments):
        words_per_seg = (GTX280.coalesce_segment_bytes
                         // GTX280.bank_width_bytes)
        idx = np.asarray(pattern, dtype=np.int64)
        info = REFERENCE.prefix_info(idx.size, GTX280)
        base = REFERENCE.global_cost(idx, info, GTX280)
        shifted_idx = idx + segments * words_per_seg
        assert REFERENCE.global_cost(shifted_idx, info, GTX280) == base
        assert VECTORIZED.global_cost(shifted_idx, info, GTX280) == base



class TestPlannedLaunches:
    """The engine is not part of a launch plan, so one memo ledger
    serves planned launches on either engine."""

    def test_engine_not_in_plan(self):
        assert "engine" not in {f.name for f in fields(LaunchPlan)}
        plan = plan_launch("cr", 32, 2)
        systems = diagonally_dominant_fluid(2, 32, seed=0)
        args = dict(num_blocks=plan.num_blocks,
                    threads_per_block=plan.threads_per_block,
                    device=plan.device, **dict(plan.kwargs))
        x_vec, planned_vec = run_kernel("cr", systems)
        gmem = plan.load(systems)
        planned_ref = launch(plan.kernel, gmem=gmem, engine="reference",
                             memo=characterize(plan),
                             **args)
        gmem_traced = plan.load(systems)
        traced_ref = _reference_execute(plan.kernel, gmem=gmem_traced,
                                        **args)
        _assert_bitwise_equal(planned_ref, traced_ref)
        _assert_bitwise_equal(planned_vec, traced_ref)
        x_ref = gmem.solution()[:2]
        assert np.array_equal(x_ref.view(np.uint32),
                              x_vec.view(np.uint32))
        assert np.array_equal(
            x_ref.view(np.uint32),
            gmem_traced.solution()[:2].view(np.uint32))

    @settings(max_examples=25, deadline=None)
    @given(n_exp=st.integers(min_value=2, max_value=6),
           num_systems=st.integers(min_value=1, max_value=3))
    def test_plan_deterministic(self, n_exp, num_systems):
        n = 2 ** n_exp
        a = plan_launch("pcr", n, num_systems)
        b = plan_launch("pcr", n, num_systems)
        assert a == b and hash(a) == hash(b)
        assert characterize(a) is characterize(b)
