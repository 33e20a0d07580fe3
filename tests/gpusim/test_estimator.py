"""Differential tests of the launch plans and the estimator's ledger memo.

:mod:`repro.gpusim.estimator` promises (module docstring) that the
charge-only ``functional=False`` pass reproduces a traced functional
launch's ledger bitwise for every planned kernel and any input data,
that :func:`estimate_report` applies the cost model's own float
arithmetic, that the memo is keyed on the full device spec and
invisible to callers, and that the paper's Table 1 closed forms hold
*exactly* -- including the headline ``28n - 38`` shared words,
``2 log2 n - 1`` steps and 160 global transactions at n = 512 for CR.
Every promise is enforced here.
"""

import dataclasses
from contextlib import nullcontext

import numpy as np
import pytest

from repro import telemetry
from repro.gpusim import (FaultPlan, KernelError, inject, launch,
                          ledgers_equal)
from repro.gpusim import estimator
from repro.gpusim.device import GTX280, TESLA_C1060
from repro.gpusim.estimator import (analytic_launch, characterize,
                                    clear_estimator_cache,
                                    closed_form_counters, estimate_ms,
                                    estimate_report)
from repro.gpusim.executor import _reference_execute
from repro.gpusim.gt200 import gt200_cost_model
from repro.gpusim.serialize import ledger_to_dict
from repro.kernels.api import (PLANNED_KERNELS, LaunchPlan, plan_launch,
                               run_kernel)
from repro.numerics.generators import diagonally_dominant_fluid
from repro.verify.generators import generate
from repro.verify.invariants import check_invariants

SOLVERS = ("cr", "pcr", "rd", "cr_pcr", "cr_rd")
SIZES = (8, 32, 128, 512)


def _traced(plan, systems, engine=None):
    """A raw launch of ``plan``: no memo, the trace recorded for real."""
    gmem = plan.load(systems)
    run = launch if engine is None else _reference_execute
    result = run(plan.kernel, num_blocks=plan.num_blocks,
                 threads_per_block=plan.threads_per_block,
                 device=plan.device, gmem=gmem, **dict(plan.kwargs))
    return gmem.solution()[:systems.num_systems], result


def _functional(method, n, num_systems=2, device=GTX280):
    systems = diagonally_dominant_fluid(num_systems, n, seed=3)
    plan = plan_launch(method, n, num_systems, device=device)
    return _traced(plan, systems)[1]


def _assert_same_ledger(a, b):
    assert ledgers_equal(a.ledger, b.ledger) == []
    assert a.ledger.step_records == b.ledger.step_records
    # Serialized form too: what the checkpoint digests hash.
    assert ledger_to_dict(a.ledger) == ledger_to_dict(b.ledger)
    assert a.threads_per_block == b.threads_per_block
    assert a.shared_bytes == b.shared_bytes


class TestAnalyticLedger:
    """The analytic ledger is the functional ledger, bit for bit."""

    @pytest.mark.parametrize("method", SOLVERS)
    @pytest.mark.parametrize("n", SIZES)
    def test_bitwise_across_grid(self, method, n):
        _assert_same_ledger(analytic_launch(method, n),
                            _functional(method, n))

    def test_independent_of_batch_size(self):
        """Per-block charges do not depend on how many systems ride
        the grid, so one stub block covers them all."""
        analytic = analytic_launch("cr", 64)
        for num_systems in (1, 5, 17):
            functional = _functional("cr", 64, num_systems=num_systems)
            assert ledgers_equal(analytic.ledger,
                                 functional.ledger) == []

    def test_other_device(self):
        analytic = analytic_launch("pcr", 64, device=TESLA_C1060)
        functional = _functional("pcr", 64, device=TESLA_C1060)
        assert ledgers_equal(analytic.ledger, functional.ledger) == []

    def test_memoized_and_clearable(self):
        clear_estimator_cache()
        first = analytic_launch("rd", 32)
        assert analytic_launch("rd", 32) is first
        clear_estimator_cache()
        again = analytic_launch("rd", 32)
        assert again is not first
        assert ledgers_equal(again.ledger, first.ledger) == []

    def test_memo_keyed_on_device_spec_not_name(self):
        """Regression: two specs sharing a name must not share ledgers."""
        from repro.analysis.device_study import FERMI_LIKE

        impostor = dataclasses.replace(FERMI_LIKE, name=GTX280.name)
        gtx = analytic_launch("cr", 128)
        warm = analytic_launch("cr", 128, device=impostor)
        clear_estimator_cache()
        cold = analytic_launch("cr", 128, device=impostor)
        assert ledger_to_dict(warm.ledger) == ledger_to_dict(cold.ledger)
        assert ledger_to_dict(warm.ledger) != ledger_to_dict(gtx.ledger)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            analytic_launch("thomas_gpu", 32)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            analytic_launch("cr", 48)


#: Every kernel a LaunchPlan can name, with its structural variants.
PLANNED = [
    ("cr", {}), ("cr", {"conflict_free_timing": True}), ("pcr", {}),
    ("rd", {}), ("cr_pcr", {}), ("cr_rd", {}), ("cr_split", {}),
    ("cr_global", {}), ("pcr_pingpong", {}), ("rd_full", {}),
    ("thomas", {"layout": "sequential"}),
    ("thomas", {"layout": "interleaved"}),
]
PLANNED_IDS = [name + "".join(f"-{v}" for v in kw.values())
               for name, kw in PLANNED]


def _data(kind, num_systems, n):
    if kind == "nonfinite":
        s = diagonally_dominant_fluid(num_systems, n, seed=21)
        s.a[0, 3] = np.nan
        s.b[-1, 5] = np.inf
        s.d[0, n - 1] = -np.inf
        return s
    return generate(kind, num_systems, n, seed=21)


class TestDataIndependence:
    """The contract behind the memo: a planned kernel's charge-only
    ledger equals its traced ledger on any data.  No kernel currently
    needs to opt out of the memo."""

    def test_every_planned_kernel_covered(self):
        assert {name for name, _kw in PLANNED} == PLANNED_KERNELS

    @pytest.mark.parametrize("kind", ["diagonally_dominant", "nonfinite",
                                      "close_values", "near_singular"])
    @pytest.mark.parametrize("name,kw", PLANNED, ids=PLANNED_IDS)
    def test_memo_matches_traced_launch(self, name, kw, kind):
        plan = plan_launch(name, 32, 3, **kw)
        with np.errstate(all="ignore"):
            _x, traced = _traced(plan, _data(kind, 3, 32))
        _assert_same_ledger(characterize(plan), traced)

    @pytest.mark.parametrize("layout", ["sequential", "interleaved"])
    def test_multi_block_thomas(self, layout):
        """600 systems pad to two 512-thread tiles; the one-tile memo
        entry must match any real block's charges."""
        plan = plan_launch("thomas", 8, 600, layout=layout)
        assert plan.num_blocks == 2
        _x, traced = _traced(plan, _data("near_singular", 600, 8))
        _assert_same_ledger(characterize(plan), traced)

    @pytest.mark.parametrize("name", ["cr", "pcr_pingpong", "rd_full"])
    def test_memo_matches_reference_engine(self, name):
        """The memo is filled on the default engine; the per-lane
        oracle's recorded trace is the same ledger."""
        plan = plan_launch(name, 16, 2)
        _x, ref = _traced(plan, _data("close_values", 2, 16),
                          engine="reference")
        _assert_same_ledger(characterize(plan), ref)


class TestLaunchPlan:
    def test_identical_launches_share_a_key(self):
        a = plan_launch("cr", 32, 4)
        assert a == plan_launch("cr", 32, 4)
        assert hash(a) == hash(plan_launch("cr", 32, 4))
        # The memo key drops the block count.
        assert a.block == plan_launch("cr", 32, 9).block

    def test_every_dimension_discriminates(self):
        keys = {plan_launch("cr_pcr", 64, 2).block,
                plan_launch("cr_pcr", 32, 2).block,
                plan_launch("cr_pcr", 64, 2, device=TESLA_C1060).block,
                plan_launch("cr_pcr", 64, 2, intermediate_size=8).block,
                plan_launch("cr", 64, 2).block,
                plan_launch("cr", 64, 2, conflict_free_timing=True).block,
                plan_launch("thomas", 64, 2).block,
                plan_launch("thomas", 64, 4).block,
                plan_launch("thomas", 64, 2, layout="interleaved").block}
        assert len(keys) == 9

    def test_kernel_identity_discriminates(self):
        pcr, pingpong = plan_launch("pcr", 32), plan_launch("pcr_pingpong",
                                                            32)
        assert pcr.threads_per_block == pingpong.threads_per_block
        assert pcr != pingpong

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="takes no intermediate size"):
            plan_launch("pcr", 32, intermediate_size=8)
        with pytest.raises(ValueError, match="does not take layout"):
            plan_launch("rd", 32, layout="interleaved")
        with pytest.raises(ValueError, match="layout must be one of"):
            plan_launch("thomas", 32, layout="diagonal")
        with pytest.raises(ValueError, match="conflict_free_timing"):
            plan_launch("pcr", 32, conflict_free_timing=True)


class TestPlannedLaunchIdentity:
    """Planned launches (memo ledger, no recording) against raw traced
    launches of the same plan."""

    @pytest.mark.parametrize("kernel", ["cr", "pcr", "rd", "cr_pcr",
                                        "cr_rd"])
    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_planned_ledger_bitwise(self, kernel, n):
        systems = diagonally_dominant_fluid(2, n, seed=3)
        _x, traced = _traced(plan_launch(kernel, n, 2), systems)
        _x, planned = run_kernel(kernel, systems)
        _assert_same_ledger(planned, traced)

    def test_solutions_identical_to_traced_launch(self):
        systems = diagonally_dominant_fluid(4, 64, seed=8)
        x_traced, _ = _traced(plan_launch("cr", 64, 4), systems)
        x_planned, _ = run_kernel("cr", systems)
        assert np.array_equal(x_traced.view(np.uint32),
                              x_planned.view(np.uint32))

    def test_invariants_pass_fully_memoized(self):
        """The second sweep is served from the memo and still satisfies
        the analytic invariants (paper closed forms, incl. the CR
        conflict ladder)."""
        clear_estimator_cache()
        sizes = (8, 16, 64)
        first = check_invariants(sizes=sizes)
        assert first.ok, first.summary()
        warm = len(estimator._MEMO)
        assert warm >= first.checked
        second = check_invariants(sizes=sizes)
        assert second.ok, second.summary()
        assert len(estimator._MEMO) == warm

    def test_cr_160_transactions_at_512_planned(self):
        """The paper's 160-transaction global footprint at n=512, from
        a planned launch."""
        _x, res = run_kernel("cr", diagonally_dominant_fluid(2, 512, seed=0))
        assert res.ledger.total().global_transactions == 160


def _session(method, systems, **kw):
    with telemetry.collect(telemetry.deterministic_collector(5)) as col:
        x, res = run_kernel(method, systems, **kw)
    return x.view(np.uint32).tobytes(), res, telemetry.to_jsonl(col)


#: The families one launch and its cost report write.
LAUNCH_FAMILIES = ("sim.launches", "sim.blocks_per_sm", "sim.shared_words",
                   "sim.global_words", "sim.flops", "sim.syncs",
                   "sim.steps", "sim.conflict_degree", "model.reports",
                   "model.total_ms", "model.phase_ms")


def _priced_session(method, systems, traced=False):
    """One launch priced twice -- once under a solver label, once
    without -- in a deterministic collector; its Prometheus text and
    JSONL.  ``traced`` runs the launch under a fault plan that injects
    nothing, which bypasses the memo entry."""
    with telemetry.collect(telemetry.deterministic_collector(5)) as col, \
            (inject(FaultPlan(seed=0)) if traced else nullcontext()):
        _x, res = run_kernel(method, systems)
        assert (res.memo_entry() is None) is traced
        cm = gt200_cost_model()
        with telemetry.span("priced", solver=method):
            cm.report(res)
        cm.report(res)
    return telemetry.prometheus_text(col), telemetry.to_jsonl(col)


class TestMemoInvisible:
    """Memo state never shows: cold and warm launches are bitwise the
    same, and each launch owns its ledger."""

    @pytest.mark.parametrize("method,kw", [("cr", {}), ("cr_pcr", {}),
                                           ("thomas",
                                            {"layout": "interleaved"})])
    def test_cold_and_warm_bitwise_identical(self, method, kw):
        systems = diagonally_dominant_fluid(3, 32, seed=2)
        clear_estimator_cache()
        x_cold, cold, jsonl_cold = _session(method, systems, **kw)
        x_warm, warm, jsonl_warm = _session(method, systems, **kw)
        assert x_cold == x_warm
        _assert_same_ledger(cold, warm)
        assert jsonl_cold == jsonl_warm

    def test_returned_ledger_is_private(self):
        """Mutating a returned ledger must not change later launches."""
        systems = diagonally_dominant_fluid(2, 16, seed=0)
        _x, first = run_kernel("pcr", systems)
        _x, second = run_kernel("pcr", systems)
        second.ledger.phases.clear()
        _x, third = run_kernel("pcr", systems)
        _assert_same_ledger(first, third)
        assert first.ledger is not third.ledger

    def test_vandalized_counters_stay_private(self):
        """Editing a counter in place (not just the containers) must
        reach neither the memo entry nor the next launch."""
        systems = diagonally_dominant_fluid(2, 16, seed=0)
        _x, first = run_kernel("pcr", systems)
        _x, vandal = run_kernel("pcr", systems)
        phase = vandal.ledger.phase_names()[0]
        vandal.ledger.phase(phase).flops += 999
        vandal.ledger.step_records[0][2].flops += 999
        memo = characterize(plan_launch("pcr", 16, 2))
        assert ledgers_equal(memo.ledger, first.ledger) == []
        _x, after = run_kernel("pcr", systems)
        _assert_same_ledger(first, after)
        assert (after.ledger.phase(phase).flops
                == vandal.ledger.phase(phase).flops - 999)

    def test_outputs_computed_on_warm_launch(self):
        """A memo hit replays the ledger only: the solution is computed
        from this launch's data, bitwise equal to a traced launch."""
        plan = plan_launch("cr", 32, 3)
        clear_estimator_cache()
        x_first, _ = run_kernel("cr", diagonally_dominant_fluid(3, 32,
                                                                seed=2))
        other = diagonally_dominant_fluid(3, 32, seed=9)
        x_warm, warm = run_kernel("cr", other)
        x_traced, traced = _traced(plan, other)
        assert len(estimator._MEMO) == 1
        assert np.array_equal(x_warm.view(np.uint32),
                              x_traced.view(np.uint32))
        assert not np.array_equal(x_warm, x_first)
        _assert_same_ledger(warm, traced)

    def test_fault_plan_traces_for_real(self):
        systems = diagonally_dominant_fluid(2, 16, seed=0)
        clear_estimator_cache()
        with telemetry.collect() as col, inject(FaultPlan(seed=3)):
            run_kernel("cr", systems)
        assert not estimator._MEMO
        assert col.metrics.snapshot()["counters"].get("sim.steps")

    def test_step_limit_traces_for_real(self):
        systems = diagonally_dominant_fluid(2, 16, seed=0)
        clear_estimator_cache()
        _x, res = run_kernel("cr", systems, step_limit=2)
        assert not estimator._MEMO
        assert res.ledger.total().steps == 2

    @pytest.mark.parametrize("method", ["cr", "cr_pcr"])
    def test_cold_warm_and_traced_exports_equal(self, method):
        """Cold-memo, warm-memo and traced launches of one plan export
        the same Prometheus text and JSONL, every launch family
        included."""
        systems = diagonally_dominant_fluid(3, 32, seed=2)
        clear_estimator_cache()
        cold = _priced_session(method, systems)
        warm = _priced_session(method, systems)
        traced = _priced_session(method, systems, traced=True)
        assert cold == warm == traced
        prom = cold[0]
        for family in LAUNCH_FAMILIES:
            assert f"# TYPE repro_{family.replace('.', '_')}" in prom, family
        assert 'solver="%s"' % method in prom

    def test_read_then_mutated_ledger_is_priced_as_is(self):
        systems = diagonally_dominant_fluid(2, 16, seed=0)
        cm = gt200_cost_model()
        _x, res = run_kernel("pcr", systems)
        entry = res.memo_entry()
        assert entry is characterize(plan_launch("pcr", 16, 2))
        memo_ms = cm.report(res).total_ms
        phase = res.ledger.phase_names()[0]
        assert res.memo_entry() is None
        res.ledger.phase(phase).warp_instructions += 10_000
        rep = cm.report(res)
        assert rep.total_ms > memo_ms
        assert rep.per_step == cm.grid_report(
            res.device, res.num_blocks, res.shared_bytes,
            res.threads_per_block, res.ledger).per_step
        assert rep.total_ms == cm.grid_report(
            res.device, res.num_blocks, res.shared_bytes,
            res.threads_per_block, res.ledger).total_ms
        # The entry's price is untouched.
        assert cm.plan_report(entry, res.num_blocks).total_ms == memo_ms

    def test_one_entry_prices_each_block_count(self):
        """Planned launches of one shape at two batch sizes share an
        entry and are each priced over their own grid."""
        cm = gt200_cost_model()
        clear_estimator_cache()
        for num_systems in (2, 40, 2):
            _x, res = run_kernel("cr", diagonally_dominant_fluid(
                num_systems, 32, seed=num_systems))
            rep = cm.report(res)
            assert res.memo_entry() is not None
            assert rep.per_step == cm.grid_report(
                res.device, num_systems, res.shared_bytes,
                res.threads_per_block, res.ledger).per_step
            assert rep.total_ms == estimate_ms("cr", 32, num_systems)
        assert len(estimator._MEMO) == 1

    def test_reports_are_private(self):
        """A replayed report is the caller's to change."""
        systems = diagonally_dominant_fluid(2, 16, seed=0)
        cm = gt200_cost_model()
        _x, res = run_kernel("pcr", systems)
        first = cm.report(res)
        expected = first.total_ms
        next(iter(first.phases.values())).compute_ms += 1.0
        first.per_step.clear()
        _x, again = run_kernel("pcr", systems)
        second = cm.report(again)
        assert second.total_ms == expected and second.per_step
        assert estimate_report("pcr", 16, 2).total_ms == expected


class TestTimingMirror:
    """estimate_report == CostModel.report of a traced launch priced
    over the same grid, float for float."""

    @pytest.mark.parametrize("method", SOLVERS)
    @pytest.mark.parametrize("n,num_systems",
                             [(32, 7), (128, 100), (512, 1000)])
    def test_total_and_steps_exact(self, method, n, num_systems):
        from repro.analysis.timing import modeled_grid_timing

        traced = dataclasses.replace(_functional(method, n),
                                     num_blocks=num_systems)
        modeled = gt200_cost_model().report(traced)
        analytic = estimate_report(method, n, num_systems)
        # Exact equality: both paths run the same float expressions in
        # the same order on bitwise-equal ledgers.
        assert analytic.total_ms == modeled.total_ms
        assert analytic.grid_scale == modeled.grid_scale
        assert analytic.per_step == modeled.per_step
        assert estimate_ms(method, n, num_systems) == modeled.total_ms
        assert modeled_grid_timing(method, n, num_systems
                                   ).solver_ms == modeled.total_ms


class TestClosedForms:
    """Paper Table 1 totals, exact (not leading-order)."""

    @pytest.mark.parametrize("n", (8, 64, 512))
    def test_cr_matches_ledger(self, n):
        forms = closed_form_counters("cr", n)
        total = analytic_launch("cr", n).ledger.total()
        assert total.steps == forms["steps"] == 2 * (n.bit_length() - 1) - 1
        assert total.shared_words == forms["shared_words"] == 28 * n - 38
        assert total.global_transactions == forms["global_transactions"]
        assert total.global_words == forms["global_words"] == 5 * n

    def test_cr_160_transactions_at_512(self):
        """The paper's headline coalesced staging cost."""
        assert closed_form_counters("cr", 512)["global_transactions"] == 160
        assert analytic_launch(
            "cr", 512).ledger.total().global_transactions == 160

    @pytest.mark.parametrize("n", (8, 64, 512))
    def test_pcr_and_rd_step_counts(self, n):
        L = n.bit_length() - 1
        assert closed_form_counters("pcr", n)["steps"] == L
        assert closed_form_counters("rd", n)["steps"] == L + 2
        assert analytic_launch("pcr", n).ledger.total().steps == L
        assert analytic_launch("rd", n).ledger.total().steps == L + 2

    def test_closed_form_rejects_bad_input(self):
        with pytest.raises(ValueError):
            closed_form_counters("cr", 48)
        with pytest.raises(ValueError, match="no closed form"):
            closed_form_counters("cr_pcr", 64)


def _overreaching_kernel(ctx, gmem):
    """Each lane reads the word one past its own: the last lane steps
    outside its block's slice of the flat global arrays."""
    ctx.set_active(ctx.threads_per_block)
    with ctx.phase("read"):
        ctx.gload(gmem.a, gmem.block_bases, ctx.lanes + 1)


class TestCharacterizeChecksBounds:
    """The charge-only pass runs every bounds check, so a plan whose
    kernel addresses memory it does not own never gets a ledger."""

    def test_out_of_bounds_plan_raises_and_is_not_memoized(self):
        plan = LaunchPlan(_overreaching_kernel, n=8, threads_per_block=8,
                          num_blocks=1, device=GTX280)
        clear_estimator_cache()
        with pytest.raises(KernelError, match="global access out of "
                                              "bounds"):
            characterize(plan)
        assert plan.block not in estimator._MEMO


class TestSideEffectFreedom:
    def test_no_telemetry_emitted(self):
        clear_estimator_cache()
        with telemetry.collect() as col:
            analytic_launch("cr", 64)
            estimate_ms("cr", 64, 100)
        names = [name for series in col.metrics.snapshot().values()
                 for name in series]
        assert not any(name.startswith("sim.") for name in names), names

    def test_one_memo_entry_per_block_plan(self):
        """The memo is the only state the estimator keeps: one entry
        per one-block plan, shared by every grid size."""
        clear_estimator_cache()
        analytic_launch("pcr", 128)
        estimate_ms("pcr", 128, 7)
        estimate_ms("pcr", 128, 700)
        assert list(estimator._MEMO) == [plan_launch("pcr", 128).block]

    def test_estimate_is_float_and_positive(self):
        ms = estimate_ms("cr_rd", 512, 1000)
        assert isinstance(ms, float) and ms > 0
