"""Seeded fuzzer: determinism, repro files, shrinking, bug injection."""

import dataclasses
import json

import numpy as np
import pytest

import repro.solvers.cr as crmod
from repro.gpusim.estimator import characterize, clear_estimator_cache
from repro.kernels.api import plan_launch
from repro.numerics.generators import diagonally_dominant_fluid
from repro.verify import (load_repro, replay_repro, run_fuzz,
                          shrink_failure, verify_cell, write_repro)
from repro.verify.differential import CellSpec
from repro.verify.fuzz import _failure_kind, draw_case

pytestmark = pytest.mark.fuzz

CR_FAMILY = {"cr", "cr_pcr", "cr_rd"}


def assert_wrong_answers(report):
    """Every failure is a wrong answer, not a crash: an injected bug
    that only raises (a patch written for another signature, say) must
    not pass for a caught one."""
    for f in report.failures:
        assert _failure_kind(f.message) != "crash", f.message


@pytest.fixture
def flipped_cr_sign(monkeypatch):
    """Deliberately inject a bug: flip the sign of the reduced rhs in
    one CR forward-reduction update (the acceptance scenario for the
    harness -- a seeded solver defect the fuzzer must catch and
    shrink)."""
    orig = crmod.forward_reduction_level

    def buggy(w, stride, n):
        orig(w, stride, n)
        w[3, stride - 1::stride] = -w[3, stride - 1::stride]

    monkeypatch.setattr(crmod, "forward_reduction_level", buggy)


@pytest.fixture
def vandalized_pcr16_memo():
    """Corrupt the estimator memo's ledger for the n=16 PCR block plan:
    a traced launch of that plan no longer matches it."""
    clear_estimator_cache()
    memo = characterize(plan_launch("pcr", 16))
    memo.ledger.phase(memo.ledger.phase_names()[0]).flops += 1
    yield
    clear_estimator_cache()


def test_draw_case_is_deterministic():
    for i in range(10):
        assert draw_case(i, seed=7) == draw_case(i, seed=7)
    specs = {draw_case(i, seed=7).spec for i in range(20)}
    assert len(specs) > 10      # actually varied


def test_clean_fuzz_run_has_no_failures(tmp_path):
    report = run_fuzz(seed=0, iters=40, corpus_dir=tmp_path)
    assert report.ok, report.summary()
    assert report.iterations == 40
    assert list(tmp_path.glob("*.json")) == []


def test_repro_file_round_trip_is_bitwise(tmp_path):
    s = diagonally_dominant_fluid(2, 16, seed=3)
    spec = CellSpec("numpy", "cr", "rows", "diagonally_dominant", 16, 2, 3)
    path = write_repro(tmp_path / "case.json", spec, s,
                       message="demo", shrink_steps=["batch -> 2 systems"])
    spec2, s2 = load_repro(path)
    assert spec2 == spec
    for x, y in ((s.a, s2.a), (s.b, s2.b), (s.c, s2.c), (s.d, s2.d)):
        assert np.array_equal(x, y) and x.dtype == y.dtype
    payload = json.loads((tmp_path / "case.json").read_text())
    assert payload["shrink_steps"] == ["batch -> 2 systems"]


def test_repro_version_guard(tmp_path):
    s = diagonally_dominant_fluid(1, 8, seed=0)
    spec = CellSpec("numpy", "gep", "rows", "diagonally_dominant", 8, 1, 0)
    write_repro(tmp_path / "old.json", spec, s)
    payload = json.loads((tmp_path / "old.json").read_text())
    payload["version"] = 99
    (tmp_path / "old.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unsupported repro version"):
        load_repro(tmp_path / "old.json")


def test_passing_corpus_replays_clean(tmp_path):
    s = diagonally_dominant_fluid(2, 16, seed=3)
    spec = CellSpec("numpy", "gep", "rows", "diagonally_dominant", 16, 2, 3)
    write_repro(tmp_path / "ok.json", spec, s)
    report = run_fuzz(seed=0, iters=0, corpus_dir=tmp_path)
    assert report.corpus_replayed == 1
    assert report.ok


def test_shrink_refuses_a_passing_cell():
    spec = CellSpec("numpy", "gep", "rows", "diagonally_dominant", 16, 4, 0)
    with pytest.raises(ValueError, match="does not fail"):
        shrink_failure(spec)


def test_injected_cr_bug_is_caught_and_shrunk(tmp_path, flipped_cr_sign):
    report = run_fuzz(seed=0, iters=60, corpus_dir=tmp_path)
    assert not report.ok, "seeded CR defect must be detected"
    assert all(f.case.spec.solver in CR_FAMILY for f in report.failures), \
        "only CR-path solvers may implicate the injected bug"
    assert_wrong_answers(report)
    for f in report.failures:
        # Acceptance bar: minimized to a <= 4-system reproduction.
        assert f.shrunk_systems.num_systems <= 4
        assert f.repro_path is not None
        # The repro file replays to the same verdict while the bug is in.
        assert replay_repro(f.repro_path).status == "fail"


def test_injected_bug_repro_passes_once_fixed(tmp_path):
    """The minimized repro is a regression test: failing under the bug,
    green on the fixed solver."""
    with pytest.MonkeyPatch.context() as mp:
        orig = crmod.forward_reduction_level

        def buggy(w, stride, n):
            orig(w, stride, n)
            w[3, stride - 1::stride] = -w[3, stride - 1::stride]

        mp.setattr(crmod, "forward_reduction_level", buggy)
        report = run_fuzz(seed=0, iters=60, corpus_dir=tmp_path)
        assert report.failures
        assert_wrong_answers(report)
    # Bug reverted ("fixed"): every minimized repro now passes.
    for f in report.failures:
        result = replay_repro(f.repro_path)
        assert result.status != "fail", result.message


def test_shrunk_spec_matches_shrunk_systems(tmp_path, flipped_cr_sign):
    report = run_fuzz(seed=0, iters=60, corpus_dir=None)
    assert report.failures
    assert_wrong_answers(report)
    f = report.failures[0]
    assert f.shrunk_spec.num_systems == f.shrunk_systems.num_systems
    assert f.shrunk_spec.n == f.shrunk_systems.n
    assert f.shrunk_spec == dataclasses.replace(
        f.case.spec, num_systems=f.shrunk_systems.num_systems,
        n=f.shrunk_systems.n)


def test_vandalized_memo_is_a_ledger_failure(vandalized_pcr16_memo):
    """Verify diffs each sim cell's traced ledger against the memo; the
    mismatch is its own failure kind and shrinking keeps it."""
    spec = CellSpec("sim", "pcr", "global", "diagonally_dominant", 16, 4, 0)
    result = verify_cell(spec)
    assert result.status == "fail"
    assert _failure_kind(result.message) == "ledger", result.message
    assert "flops" in result.message
    shrunk, systems, steps = shrink_failure(spec)
    assert (systems.num_systems, systems.n) == (1, 16)   # n=8 is clean
    assert _failure_kind(verify_cell(shrunk, systems).message) == "ledger"
