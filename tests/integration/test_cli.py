"""The ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GTX 280" in out
        assert "cr_pcr" in out

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all headline checks passed" in out
        assert "FAIL" not in out

    def test_analyze(self, capsys):
        assert main(["analyze", "cr", "--n", "64"]) == 0
        out = capsys.readouterr().out
        assert "prioritized optimizations" in out
        assert "forward_reduction" in out

    def test_analyze_hybrid_with_switch_point(self, capsys):
        assert main(["analyze", "cr_pcr", "--n", "64",
                     "--intermediate-size", "16"]) == 0
        out = capsys.readouterr().out
        assert "inner_forward_reduction" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_solver_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "sor"])


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "matches the paper" in out
        assert "overflow" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "rep.md"
        assert main(["report", "-o", str(target)]) == 0
        text = target.read_text()
        assert "Solver totals at 512x512" in text
        assert "Bank conflicts" in text
        assert "Hybrid switch points" in text


class TestExperimentsCommand:
    def test_lists_all_artifacts(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "Figure 18" in out
        assert "bench_table1_complexity.py" in out


class TestRobustCommand:
    def test_healthy_run_exits_zero(self, capsys):
        assert main(["robust", "--systems", "4", "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "accepted" in out

    def test_exhausted_chain_exits_nonzero(self, capsys):
        """An impossible tolerance defeats every chain member: the
        command must say so and exit 1 (the satellite contract)."""
        rc = main(["robust", "--systems", "4", "--size", "32",
                   "--tol", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "(exit 1)" in out
        assert "fallback_total" in out or "failed the whole chain" in out

    def test_json_carries_resilience_metrics(self, capsys):
        import json
        assert main(["robust", "--systems", "4", "--size", "32",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "metrics" in doc
        assert set(doc["metrics"]) == {"fallback_total", "residual_max"}
        assert doc["metrics"]["residual_max"]   # histogram observed


class TestServeCommand:
    ARGS = ["serve", "--jobs", "2", "--systems", "8", "--size", "32",
            "--chunk-size", "4", "--devices", "2", "--seed", "3"]

    def test_healthy_pool_exits_zero(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "job job0: ok" in out
        assert "job job1: ok" in out
        assert "modeled makespan" in out

    def test_hot_device_run_reroutes(self, capsys):
        # threshold 1: the breaker must trip on gpu1's first failed
        # attempt; the seeded backoff jitter decides how many attempts
        # gpu1 even gets before every chunk lands on gpu0.
        assert main(self.ARGS + ["--hot", "1",
                                 "--failure-threshold", "1"]) == 0
        out = capsys.readouterr().out
        assert "serving:" in out            # telemetry summary section
        assert "breaker transitions" in out

    def test_json_reports_and_metrics(self, capsys):
        import json
        assert main(self.ARGS + ["--hot", "1", "--failure-threshold",
                                 "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [j["job_id"] for j in doc["jobs"]] == ["job0", "job1"]
        assert all(j["outcome"] == "ok" for j in doc["jobs"])
        assert "gpu0" in doc["breakers"]
        assert any(k.startswith("serve.") for k in doc["metrics"])

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        import json

        def base(ckpt):
            return ["serve", "--jobs", "1", "--systems", "8", "--size",
                    "32", "--chunk-size", "2", "--devices", "2",
                    "--seed", "3", "--checkpoint", str(ckpt),
                    "--checkpoint-every", "2", "--json"]

        def digest():
            doc = json.loads(capsys.readouterr().out)
            return doc["jobs"][0]["solution_digest"]

        assert main(base(tmp_path / "a")) == 0
        full = digest()
        assert main(base(tmp_path / "b") + ["--stop-after", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["jobs"][0]["outcome"] == "stopped"
        assert main(base(tmp_path / "b") + ["--resume"]) == 0
        assert digest() == full             # bitwise-identical solution

    def test_unmeetable_deadline_rejected(self, capsys):
        rc = main(self.ARGS + ["--deadline-ms", "1e-9"])
        out = capsys.readouterr().out
        assert rc == 1                      # nothing ran
        assert "deadline_unmeetable" in out


class TestServeObservability:
    """``repro serve`` SLO report, JSON schema v2, exports, top."""

    ARGS = ["serve", "--jobs", "2", "--systems", "8", "--size", "32",
            "--chunk-size", "4", "--devices", "2", "--seed", "3"]

    def test_report_renders_slo_table(self, capsys):
        assert main(self.ARGS + ["--report"]) == 0
        out = capsys.readouterr().out
        assert "== SLO report ==" in out
        assert "standard" in out
        assert "latency by class (modeled ms):" in out

    def test_report_is_bitwise_identical_across_runs(self, capsys):
        assert main(self.ARGS + ["--report"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--report"]) == 0
        assert capsys.readouterr().out == first

    def test_slo_class_flag_routes_jobs(self, capsys):
        import json
        assert main(self.ARGS + ["--slo-class", "batch", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(j["slo_class"] == "batch" for j in doc["jobs"])
        assert doc["slo"]["batch"]["jobs"] == 2

    def test_json_schema_v2(self, capsys):
        import json
        assert main(self.ARGS + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro.serve/v2"
        assert doc["seed"] == 3
        assert doc["exit_code"] == 0
        assert doc["shed"] == []
        assert "standard" in doc["slo"]
        for job in doc["jobs"]:
            assert job["trace_id"]
            assert "queue_wait_ms" in job

    def test_shed_jobs_exit_nonzero_with_attribution(self, capsys):
        import json
        rc = main(self.ARGS + ["--deadline-ms", "1e-9", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["exit_code"] == 1
        assert len(doc["shed"]) == 2
        assert all(s["reason"] == "deadline_unmeetable"
                   for s in doc["shed"])
        assert doc["slo"]["standard"]["shed"] == 2

    def test_export_dir_writes_artifacts(self, tmp_path, capsys):
        import json
        out_dir = tmp_path / "obs"
        assert main(self.ARGS + ["--export-dir", str(out_dir)]) == 0
        capsys.readouterr()
        trace = json.loads((out_dir / "serve.trace.json").read_text())
        assert trace["traceEvents"]
        events = (out_dir / "serve.events.jsonl").read_text()
        assert '"type": "span"' in events
        assert (out_dir / "serve.summary.txt").read_text()
        prom = (out_dir / "serve.metrics.prom").read_text()
        assert "repro_serve_latency_ms_bucket" in prom

    def test_exports_bitwise_identical_across_runs(self, tmp_path,
                                                   capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--export-dir", str(a)]) == 0
        assert main(self.ARGS + ["--export-dir", str(b)]) == 0
        capsys.readouterr()
        for name in ("serve.trace.json", "serve.events.jsonl",
                     "serve.metrics.prom"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_top_round_trip(self, tmp_path, capsys):
        out_dir = tmp_path / "obs"
        assert main(self.ARGS + ["--export-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["top", str(out_dir / "serve.events.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "== repro top" in out
        assert "serve latency" in out
        assert "p99" in out

    def test_top_missing_file_exits_nonzero(self, capsys):
        assert main(["top", "/nonexistent/events.jsonl"]) == 1
