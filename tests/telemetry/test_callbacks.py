"""Launch records: the executor reports each launch to the collector."""

import numpy as np
import pytest

from repro import telemetry
from repro.gpusim import launch
from repro.kernels.api import plan_launch, run_kernel
from repro.numerics.generators import diagonally_dominant_fluid


def sample_kernel(ctx):
    arr = ctx.shared(64)
    with ctx.phase("work"):
        ctx.set_active(32)
        with ctx.step():
            ctx.sload(arr, np.arange(32))
            ctx.ops(2)
            ctx.sync()


def _step_series(col):
    steps = col.metrics.counter("sim.steps").series
    degrees = col.metrics.histogram("sim.conflict_degree").series
    return (dict(steps),
            {key: (s.count, s.summary()) for key, s in degrees.items()})


class TestCollectorIntegration:
    def test_collect_records_launch_and_metrics(self):
        with telemetry.collect() as col:
            launch(sample_kernel, num_blocks=3, threads_per_block=32)
        assert len(col.launches) == 1
        rec = col.launches[0]
        assert rec.kernel == "sample_kernel"
        assert rec.num_blocks == 3
        assert rec.result is not None
        assert col.metrics.counter("sim.launches").value(
            kernel="sample_kernel") == 1
        assert col.metrics.counter("sim.steps").value(phase="work") == 1
        deg = col.metrics.histogram("sim.conflict_degree")
        assert deg.count(phase="work") == 1

    def test_step_metrics_come_from_the_ledger(self):
        with telemetry.collect() as col:
            launch(sample_kernel, num_blocks=1, threads_per_block=32)
        [(phase, index, counters)] = col.launches[0].result.ledger.step_records
        assert (phase, index) == ("work", 0)
        assert counters.shared_words > 0
        assert col.metrics.counter("sim.steps").value(phase="work") == 1
        deg = col.metrics.histogram("sim.conflict_degree")
        assert deg.summary(phase="work")["max"] == counters.conflict_degree

    @pytest.mark.parametrize("method", ["cr", "cr_pcr"])
    def test_planned_and_traced_launches_record_same_step_metrics(
            self, method):
        systems = diagonally_dominant_fluid(4, 64, seed=3)
        plan = plan_launch(method, systems.n, systems.num_systems)
        with telemetry.collect() as planned:
            run_kernel(method, systems)
        with telemetry.collect() as traced:
            launch(plan.kernel, num_blocks=plan.num_blocks,
                   threads_per_block=plan.threads_per_block,
                   device=plan.device, gmem=plan.load(systems),
                   **dict(plan.kwargs))
        assert _step_series(planned) == _step_series(traced)

        records = traced.launches[0].result.ledger.step_records
        steps = {}
        for phase, _index, _counters in records:
            steps[phase] = steps.get(phase, 0) + 1
        counter = planned.metrics.counter("sim.steps")
        assert {p: counter.value(phase=p) for p in steps} == steps
        assert sum(counter.series.values()) == len(records)
        deg = planned.metrics.histogram("sim.conflict_degree")
        for phase, count in steps.items():
            degrees = [c.conflict_degree for p, _i, c in records
                       if p == phase]
            summary = deg.summary(phase=phase)
            assert summary["count"] == count
            assert (summary["min"], summary["max"]) == (min(degrees),
                                                        max(degrees))
            assert summary["sum"] == pytest.approx(sum(degrees))

    def test_launch_failure_still_closes_record(self):
        def bad_kernel(ctx):
            with ctx.phase("boom"):
                raise RuntimeError("kernel error")

        with telemetry.collect() as col:
            try:
                launch(bad_kernel, num_blocks=1, threads_per_block=32)
            except RuntimeError:
                pass
        assert len(col.launches) == 1
        assert col.launches[0].result is None


class TestPlannedLaunchReplay:
    """A warm planned launch replays its plan's resolved ``sim.*`` and
    ``model.*`` writes: it sorts no label set of its own."""

    def test_warm_planned_launch_resolves_no_label_keys(self, monkeypatch):
        from repro.gpusim import gt200_cost_model
        from repro.telemetry import metrics

        calls = []
        labelkey = metrics._labelkey

        def counting(labels):
            calls.append(dict(labels))
            return labelkey(labels)

        monkeypatch.setattr(metrics, "_labelkey", counting)
        systems = diagonally_dominant_fluid(2, 32, seed=1)
        cm = gt200_cost_model()

        def launch_and_price():
            with telemetry.span("solve", solver="cr_pcr"):
                _x, res = run_kernel("cr_pcr", systems)
                cm.report(res)

        with telemetry.collect() as col:
            launch_and_price()              # resolves (memo may be cold)
            calls.clear()
            launch_and_price()              # warm: replays
            warm = list(calls)
            _x, res = run_kernel("cr_pcr", systems)
            res.ledger                      # read: priced as traced
            cm.report(res)
        assert warm == []
        assert calls, "a read ledger resolves its model.* writes afresh"
        assert col.metrics.counter("sim.launches").value(
            kernel="cr_pcr_kernel") == 3
        assert col.metrics.counter("model.reports").value(
            solver="cr_pcr") == 2
