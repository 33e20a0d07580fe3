"""Metrics registry: counters, gauges, histograms, snapshots."""

import pytest

from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricsRegistry)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labels_keep_separate_series(self):
        c = Counter("ms")
        c.inc(1.0, solver="cr")
        c.inc(2.0, solver="pcr")
        c.inc(1.5, solver="cr")
        assert c.value(solver="cr") == 2.5
        assert c.value(solver="pcr") == 2.0

    def test_label_order_does_not_matter(self):
        c = Counter("x")
        c.inc(1.0, a=1, b=2)
        c.inc(1.0, b=2, a=1)
        assert c.value(a=1, b=2) == 2.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("occupancy")
        g.set(4)
        g.set(8)
        assert g.value() == 8


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("deg")
        for v in [1, 2, 2, 4, 16]:
            h.observe(v)
        s = h.summary()
        assert s["count"] == 5
        assert s["sum"] == 25
        assert s["min"] == 1 and s["max"] == 16
        assert s["p50"] == 2

    def test_labelled_series_stay_separate(self):
        h = Histogram("deg")
        h.observe(2, phase="fwd")
        h.observe(8, phase="bwd")
        assert h.count(phase="fwd") == 1
        assert h.count(phase="bwd") == 1
        assert h.quantile(0.5, phase="fwd") == 2
        assert h.quantile(0.5, phase="bwd") == 8


class TestRegistry:
    def test_lazy_creation_and_reuse(self):
        reg = MetricsRegistry()
        c1 = reg.counter("launches")
        c2 = reg.counter("launches")
        assert c1 is c2
        assert "launches" in reg

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("launches").inc(3, solver="cr")
        reg.gauge("blocks").set(8)
        reg.histogram("deg").observe(4)
        snap = reg.snapshot()
        assert snap["counters"]["launches"] == {"{solver=cr}": 3.0}
        assert snap["gauges"]["blocks"] == {"_": 8}
        assert snap["histograms"]["deg"]["_"]["count"] == 1


class TestResilienceHelpers:
    """fallback_total / residual_max recording (docs/robustness.md)."""

    def test_noop_without_collector(self):
        from repro import telemetry
        from repro.telemetry.metrics import FALLBACK_TOTAL, RESIDUAL_MAX, emit
        assert not telemetry.enabled()
        emit(FALLBACK_TOTAL, **{"from": "cr_pcr", "to": "pcr",
                                "reason": "residual"})    # must not raise
        emit(RESIDUAL_MAX, 1e-7, method="cr_pcr")

    def test_recorded_under_collector(self):
        from repro import telemetry
        from repro.telemetry.metrics import FALLBACK_TOTAL, RESIDUAL_MAX, emit
        with telemetry.collect() as col:
            emit(FALLBACK_TOTAL, 3, **{"from": "cr_pcr", "to": "pcr",
                                       "reason": "corruption"})
            emit(RESIDUAL_MAX, 0.25, method="pcr")
        c = col.metrics.counter(FALLBACK_TOTAL, "")
        assert c.value(**{"from": "cr_pcr", "to": "pcr",
                          "reason": "corruption"}) == 3
        h = col.metrics.histogram(RESIDUAL_MAX, "")
        assert h.count(method="pcr") == 1
        assert h.summary(method="pcr")["max"] == 0.25

    def test_rendered_in_text_summary(self):
        from repro import telemetry
        from repro.telemetry.metrics import FALLBACK_TOTAL, RESIDUAL_MAX, emit
        with telemetry.collect() as col:
            emit(FALLBACK_TOTAL, **{"from": "cr_pcr", "to": "gep",
                                    "reason": "unstable"})
            emit(RESIDUAL_MAX, 1e-6, method="gep")
        text = telemetry.text_summary(col)
        assert "cr_pcr -> gep [unstable]: 1" in text
        assert "gep:" in text


class TestCatalogue:
    """One declaration per family (METRICS), one write path (record)."""

    def test_record_dispatches_on_declared_kind(self):
        reg = MetricsRegistry()
        reg.record("pcie.transfers")
        reg.record("pcie.transfers", 2)
        reg.record("serve.frontend_depth", 5)
        reg.record("serve.frontend_depth", 3)
        reg.record("pcie.transfer_ms", 0.5)
        assert reg.counter("pcie.transfers").value() == 3.0
        assert reg.gauge("serve.frontend_depth").value() == 3.0
        assert reg.histogram("pcie.transfer_ms").count() == 1

    def test_record_undeclared_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(KeyError):
            reg.record("pcie.transfer")          # typo of pcie.transfers
        assert "pcie.transfer" not in reg

    def test_emit_undeclared_name_raises(self):
        from repro import telemetry
        from repro.telemetry.metrics import emit
        with telemetry.collect():
            with pytest.raises(KeyError):
                emit("serve.shed")

    def test_emit_without_collector_is_noop(self):
        from repro import telemetry
        from repro.telemetry.metrics import emit
        assert not telemetry.enabled()
        emit("serve.shed_total", cls="standard", reason="capacity",
             tenant="t0")
        emit("not.declared")                     # nothing to record into

    def test_declared_kind_is_enforced_for_readers(self):
        reg = MetricsRegistry()
        with pytest.raises(TypeError):
            reg.counter("serve.latency_ms")
        assert reg.get("serve.latency_ms") is None

    def test_get_returns_family_or_none(self):
        reg = MetricsRegistry()
        assert reg.get("sim.steps") is None
        reg.record("sim.steps", phase="fwd")
        assert reg.get("sim.steps") is reg.counter("sim.steps")

    def test_help_comes_from_catalogue_when_reader_registers_first(self):
        from repro import telemetry
        from repro.telemetry.export import prometheus_text
        from repro.telemetry.metrics import FALLBACK_TOTAL, METRICS, emit
        with telemetry.collect() as col:
            col.metrics.counter(FALLBACK_TOTAL, "")  # a reader, first
            emit(FALLBACK_TOTAL, **{"from": "cr_pcr", "to": "pcr",
                                    "reason": "residual"})
        help_text = METRICS[FALLBACK_TOTAL][1]
        assert col.metrics.get(FALLBACK_TOTAL).help == help_text
        assert (f"# HELP repro_fallback_total {help_text}\n"
                in prometheus_text(col))

    def test_every_exported_family_is_declared_with_its_kind(
            self, tmp_path, capsys):
        import json
        from pathlib import Path

        from repro.cli import main
        from repro.telemetry.export import _prom_name, prometheus_text
        from repro.telemetry.metrics import METRICS
        from repro.telemetry.profile import run_profile

        golden = json.loads(
            (Path(__file__).parents[1] / "data"
             / "telemetry_export_digests.json").read_text())
        texts = [prometheus_text(
            run_profile(quick=True, outdir=str(tmp_path)).collector)]
        for case, spec in sorted(golden["serve"].items()):
            out_dir = tmp_path / case
            assert main(spec["argv"] + ["--export-dir", str(out_dir)]) == 0
            texts.append((out_dir / "serve.metrics.prom").read_text())
        capsys.readouterr()

        declared = {}
        for name, (kind, _help) in METRICS.items():
            prom = _prom_name(name)
            if kind == "counter" and not prom.endswith("_total"):
                prom += "_total"
            declared[prom] = kind
        exported = {}
        for text in texts:
            for line in text.splitlines():
                if line.startswith("# TYPE "):
                    _, _, prom, kind = line.split()
                    exported[prom] = kind
        assert exported and set(exported) <= set(declared)
        assert {p: declared[p] for p in exported} == exported
        # the exports exercise the instrumented layers, not a sliver
        for prefix in ("repro_sim_", "repro_pcie_", "repro_model_",
                       "repro_serve_breaker", "repro_serve_hedges",
                       "repro_serve_lifecycle", "repro_faults_"):
            assert any(p.startswith(prefix) for p in exported), prefix


class TestHandles:
    """Writes through bound handles, one per (registry, family, labels)."""

    def test_equal_hashing_label_values_keep_three_series(self):
        from repro import telemetry
        from repro.telemetry.metrics import emit
        with telemetry.collect() as col:
            for _ in range(2):              # the second pass hits handles
                for value in (1, 1.0, True):
                    emit("sim.steps", phase=value)
        assert col.metrics.counter("sim.steps").series == {
            (("phase", "1"),): 2.0, (("phase", "1.0"),): 2.0,
            (("phase", "True"),): 2.0}

    def test_record_keeps_equal_hashing_values_apart(self):
        reg = MetricsRegistry()
        for value in (True, 1, 1.0, 1, True):
            reg.record("serve.health_score", 0.5, device=value)
        assert sorted(reg.gauge("serve.health_score").series) == [
            (("device", "1"),), (("device", "1.0"),), (("device", "True"),)]

    def test_signed_zero_labels_stay_apart(self):
        reg = MetricsRegistry()
        for value in (0.0, -0.0, 0.0):
            reg.record("sim.steps", phase=value)
        assert reg.counter("sim.steps").series == {
            (("phase", "0.0"),): 2.0, (("phase", "-0.0"),): 1.0}

    def test_handle_never_writes_into_another_collector(self):
        from repro import telemetry
        from repro.telemetry.metrics import emit
        with telemetry.collect() as outer:
            emit("pcie.transfers")
            with telemetry.collect() as inner:
                emit("pcie.transfers")
                emit("pcie.transfers")
            emit("pcie.transfers")
        assert outer.metrics.counter("pcie.transfers").value() == 2.0
        assert inner.metrics.counter("pcie.transfers").value() == 2.0
        assert (outer.metrics.handle("pcie.transfers")
                is not inner.metrics.handle("pcie.transfers"))

    def test_undeclared_name_raises_on_every_write(self):
        from repro import telemetry
        from repro.telemetry.metrics import emit
        with telemetry.collect() as col:
            for _ in range(3):
                with pytest.raises(KeyError, match="undeclared"):
                    emit("serve.shed", cls="batch")
                with pytest.raises(KeyError, match="undeclared"):
                    col.metrics.record("serve.shed", cls="batch")
        assert "serve.shed" not in col.metrics

    def test_negative_increment_raises_on_a_cached_handle(self):
        from repro import telemetry
        from repro.telemetry.metrics import emit
        with telemetry.collect() as col:
            emit("pcie.bytes", 8, device="gpu0")
            with pytest.raises(ValueError, match="cannot decrease"):
                emit("pcie.bytes", -1, device="gpu0")
            with pytest.raises(ValueError, match="cannot decrease"):
                col.metrics.handle("pcie.bytes", device="gpu0")(-1)
        assert col.metrics.counter("pcie.bytes").value(device="gpu0") == 8

    def test_negative_first_increment_creates_no_family(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.record("pcie.bytes", -1)
        assert "pcie.bytes" not in reg

    def test_handle_holds_kind_and_sorted_label_key(self):
        reg = MetricsRegistry()
        handle = reg.handle("serve.chunk_ms", device="gpu0", cls="batch")
        assert handle.kind == "histogram"
        assert handle.key == (("cls", "batch"), ("device", "gpu0"))
        assert reg.handle("serve.chunk_ms", cls="batch",
                          device="gpu0").key == handle.key

    def test_seeded_serve_metrics_match_their_golden_digests(self):
        """A seeded overload session's metrics, every launch's ``sim.*``
        and ``model.*`` writes replayed from the plan memo, are
        byte-identical to those recorded before writes went through
        handles (re-recorded once since, for the rename of
        ``serve.chunks_total`` to ``serve.launches_total``)."""
        import hashlib
        import json

        from repro import telemetry
        from repro.gpusim.pool import make_pool
        from repro.serve import (BatchScheduler, FrontendConfig,
                                 ServeFrontend, loadgen)
        from repro.telemetry.export import prometheus_text

        col = telemetry.deterministic_collector(7)
        with telemetry.collect(col):
            sched = BatchScheduler(make_pool(2, seed=5), seed=7,
                                   checkpoint_every=2)
            fe = ServeFrontend(sched, config=FrontendConfig())
            fe.run(loadgen.generate(
                loadgen.overload_profiles(2.0, scenario="mixed", tenants=3),
                horizon_ms=1.5, seed=7))
            fe.close()
        replayed = [r for r in col.launches
                    if r.result is not None and r.result.memo_entry()]
        assert len(replayed) == len(col.launches) == 83

        def sha(text: str) -> str:
            return hashlib.sha256(text.encode()).hexdigest()

        assert sha(json.dumps(col.metrics.snapshot(), sort_keys=True)) == (
            "ee2882cdf8a4ec9bb37148c3f7f3fd0c56fb767f5ccbe0834ad59b622389be77")
        assert sha(prometheus_text(col)) == (
            "392f02653484dc0c62a67d3db82bacd3d68a162837b2e99e5cdb46f6b2870a59")
