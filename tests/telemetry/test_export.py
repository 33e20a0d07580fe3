"""Export sinks: JSONL, Chrome trace, text summary, breakdown agreement."""

import json
import math

import pytest

from repro import telemetry
from repro.analysis.breakdown import resource_breakdown
from repro.gpusim import gt200_cost_model
from repro.kernels.api import run_kernel
from repro.telemetry.export import (chrome_trace, phase_totals,
                                    text_summary, to_jsonl)


@pytest.fixture
def collected(dominant_small):
    with telemetry.collect() as col:
        with telemetry.span("solve", method="cr"):
            run_kernel("cr", dominant_small)
        telemetry.event("done", note="test")
    return col


class TestJsonl:
    def test_every_line_parses(self, collected):
        lines = to_jsonl(collected).splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["type"] == "meta"
        assert parsed[0]["format"] == "repro.telemetry/v1"
        types = {p["type"] for p in parsed}
        assert types == {"meta", "span", "event", "launch", "metrics"}

    def test_launch_line_embeds_trace(self, collected):
        launches = [json.loads(line)
                    for line in to_jsonl(collected).splitlines()
                    if json.loads(line)["type"] == "launch"]
        assert len(launches) == 1
        trace = launches[0]["trace"]
        assert trace["num_blocks"] == 8
        assert "phases" in trace["ledger"]


class TestChromeTrace:
    def test_one_slice_per_ledger_phase(self, collected):
        doc = chrome_trace(collected)
        ledger = collected.launches[0].result.ledger
        slices = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e.get("cat") == "phase"]
        sliced_phases = {e["name"] for e in slices}
        assert sliced_phases == set(ledger.phases)
        for e in slices:
            assert e["dur"] > 0
            assert e["pid"] == 0

    def test_phase_tracks_are_named(self, collected):
        doc = chrome_trace(collected)
        names = [e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        for phase in collected.launches[0].result.ledger.phases:
            assert f"phase:{phase}" in names

    def test_wall_spans_on_host_track(self, collected):
        doc = chrome_trace(collected)
        host = [e for e in doc["traceEvents"]
                if e.get("pid") == 1 and e["ph"] == "X"]
        assert any(e["name"] == "solve" for e in host)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "done" for e in instants)

    def test_document_is_json_serializable(self, collected):
        json.dumps(chrome_trace(collected))


class TestBreakdownAgreement:
    def test_phase_totals_match_cost_model_report(self, collected):
        cm = gt200_cost_model()
        rep = cm.report(collected.launches[0].result)
        totals = phase_totals(collected)
        assert set(totals) == set(rep.phases)
        for name, pt in rep.phases.items():
            assert math.isclose(totals[name]["total_ms"], pt.total_ms)
            assert math.isclose(totals[name]["shared_ms"], pt.shared_ms)

    def test_resource_split_matches_breakdown(self, collected):
        res = collected.launches[0].result
        rb = resource_breakdown(res)
        cm = gt200_cost_model()
        rep = cm.report(res)
        assert math.isclose(rep.global_ms, rb.global_ms)
        assert math.isclose(rep.shared_ms, rb.shared_ms)
        assert math.isclose(rep.compute_ms, rb.compute_ms)


class TestSummary:
    def test_summary_mentions_launch_and_phases(self, collected):
        text = text_summary(collected)
        assert "cr_kernel" in text
        assert "per-phase modeled time" in text
        for phase in collected.launches[0].result.ledger.phases:
            assert phase in text

    def test_summary_without_launches(self):
        with telemetry.collect() as col:
            with telemetry.span("idle"):
                pass
        text = text_summary(col)
        assert "launches: 0" in text
        assert "idle" in text
