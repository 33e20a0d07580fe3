"""The CI perf gates fail on every injected regression, and only then.

Each case runs a gate's ``main`` on its committed baseline with one
perturbation, fed through ``measure`` (through ``_time_cell`` for the
engine), against a copy of the committed results under ``tmp_path``.
Nothing is written under ``benchmarks/results/``, and no workload runs
except the paper-fidelity gate's own measurement (about a second), once
as committed and once with one cost-model coefficient shifted.
"""

import copy
import dataclasses
import importlib
import json
import os
import shutil

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                         "benchmarks")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

#: gate name -> (script module, recorded section key)
GATES = {
    "serve_latency": ("bench_serve_latency", "classes"),
    "overload": ("bench_overload", "overload"),
    "layout_autotune": ("bench_layout_autotune", "rows"),
    "vectorized_engine": ("bench_vectorized_engine", "rows"),
    "paper_fidelity": ("bench_paper_fidelity", "numbers"),
}


def _scale(field, factor, *, key=None):
    def perturb(section):
        (section[key] if key is not None else section)[field] *= factor
    return perturb


def _set(field, value, *, key=None):
    def perturb(section):
        (section[key] if key is not None else section)[field] = value
    return perturb


def _every_row(field, factor):
    def perturb(rows):
        for row in rows:
            row[field] *= factor
    return perturb


def _engine_speedup(target):
    def perturb(cells):
        for cell in cells.values():
            cell[1] = cell[0] * target
    return perturb


def _engine_mismatch(cells):
    cells["cr", 256][2] = ["cr n=256: solutions differ bitwise"]


def _objective_below_p99(s):
    s["interactive_objective_ms"] = s["interactive_p99_ms"] * 0.9


def _unchanged(section):
    pass


#: (gate, case, perturbation, exit code, words every failure names)
CASES = [
    ("serve_latency", "baseline", _unchanged, 0, []),
    ("serve_latency", "p99 x1.26", _scale("p99_ms", 1.26, key="standard"),
     1, ["standard.p99_ms"]),
    ("serve_latency", "p99 x1.24", _scale("p99_ms", 1.24, key="standard"),
     0, []),
    ("overload", "baseline", _unchanged, 0, []),
    ("overload", "goodput x0.94", _scale("goodput", 0.94), 1, ["goodput"]),
    ("overload", "goodput x0.96", _scale("goodput", 0.96), 0, []),
    ("overload", "interactive p99 x1.26", _scale("interactive_p99_ms", 1.26),
     1, ["interactive_p99_ms"]),
    ("overload", "interactive p99 x1.24", _scale("interactive_p99_ms", 1.24),
     0, []),
    ("overload", "interactive shed",
     _set("interactive", 0.005, key="shed_rate_by_class"), 1,
     ["interactive request shed"]),
    ("overload", "finish before arrival", _set("finish_before_arrival", 1),
     1, ["finishes before it arrives"]),
    ("overload", "p99 above objective", _objective_below_p99, 1,
     ["objective"]),
    ("layout_autotune", "baseline", _unchanged, 0, []),
    ("layout_autotune", "choice flipped",
     _set("chosen", "cr_pcr/sequential", key=3), 1, ["[3].chosen"]),
    ("layout_autotune", "coalescing x0.89",
     _every_row("coalescing_ratio", 0.89), 1, ["coalescing_ratio"]),
    ("layout_autotune", "coalescing x0.91",
     _every_row("coalescing_ratio", 0.91), 0, []),
    ("layout_autotune", "fold line: big batch not interleaved Thomas",
     _set("chosen", "pcr/sequential", key=0), 1,
     ["fold line: S=2048 n=8"]),
    ("layout_autotune", "fold line: single system not sequential",
     _set("chosen", "thomas/interleaved", key=5), 1,
     ["fold line: S=1 n=512"]),
    ("vectorized_engine", "baseline", _unchanged, 0, []),
    ("vectorized_engine", "speedup 9.9x", _engine_speedup(9.9), 1,
     ["aggregate speedup"]),
    ("vectorized_engine", "speedup 10.1x", _engine_speedup(10.1), 0, []),
    ("vectorized_engine", "ledger/solution mismatch", _engine_mismatch, 1,
     ["bitwise", "cr n=256"]),
    ("paper_fidelity", "baseline", _unchanged, 0, []),
    ("paper_fidelity", "fig6 error x1.01",
     _scale("error", 1.01, key="fig6.cr_pcr"), 1, ["fig6.cr_pcr.error"]),
    ("paper_fidelity", "fig9 error halved",
     _scale("error", 0.5, key="fig9.step2"), 0, []),
]


def committed(name):
    """The committed ``data[key]`` section of one gate."""
    with open(os.path.join(RESULTS_DIR, f"{name}.json")) as fh:
        section = json.load(fh)["data"][GATES[name][1]]
    if name == "overload":
        # The committed record predates this field; the clock makes it 0.
        section.setdefault("finish_before_arrival", 0)
    if name == "layout_autotune":
        for row in section:
            row.pop("drift", None)      # a field measure() no longer emits
    return section


def engine_cells(rows):
    """Committed engine rows as mutable ``_time_cell`` results."""
    return {(r["solver"], r["n"]): [r["vectorized_ms"] * r["repeats"] / 1e3,
                                    r["reference_ms"] * r["repeats"] / 1e3,
                                    []]
            for r in rows}


def install(monkeypatch, module, name, perturb):
    """Patch ``module`` to measure the perturbed committed baseline."""
    if name == "vectorized_engine":
        cells = engine_cells(committed(name))
        perturb(cells)
        monkeypatch.setattr(module, "_time_cell",
                            lambda method, n, repeats: tuple(cells[method, n]))
    else:
        section = committed(name)
        perturb(section)
        monkeypatch.setattr(module, "measure",
                            lambda: copy.deepcopy(section))


def _snapshot(directory):
    out = {}
    for f in sorted(os.listdir(directory)):
        with open(os.path.join(directory, f), "rb") as fh:
            out[f] = fh.read()
    return out


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """Import gate scripts with ``_harness.RESULTS_DIR`` on a copy."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    harness = importlib.import_module("_harness")
    results = tmp_path / "results"
    results.mkdir()
    for name in GATES:
        shutil.copy(os.path.join(RESULTS_DIR, f"{name}.json"), results)
    monkeypatch.setattr(harness, "RESULTS_DIR", str(results))
    committed_files = _snapshot(RESULTS_DIR)

    def load(name, perturb):
        module = importlib.import_module(GATES[name][0])
        install(monkeypatch, module, name, perturb)
        return module

    yield load, results
    assert _snapshot(RESULTS_DIR) == committed_files


@pytest.mark.parametrize("name, case, perturb, code, names", CASES,
                         ids=[f"{c[0]}: {c[1]}" for c in CASES])
def test_injected_regression(bench, capsys, name, case, perturb, code,
                             names):
    load, results = bench
    module = load(name, perturb)
    before = _snapshot(results)
    assert module.main([]) == code
    assert _snapshot(results) == before, "a plain run must not record"
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL:")]
    assert bool(fails) == bool(code)
    for word in names:
        assert any(word in line for line in fails), (word, fails)


@pytest.mark.parametrize("name", sorted(GATES))
def test_update_is_idempotent(bench, name):
    load, results = bench
    module = load(name, _unchanged)
    for f in os.listdir(results):
        os.remove(results / f)
    written = []
    for _ in range(2):
        assert module.main(["--update"]) == 0
        written.append(_snapshot(results))
    assert written[0] == written[1]
    assert sorted(written[0]) == [f"{name}.json", f"{name}.txt"]
    with open(results / f"{name}.json") as fh:
        recorded = json.load(fh)["data"]
    assert list(recorded) == [GATES[name][1]]
    if name != "vectorized_engine":
        assert recorded[GATES[name][1]] == committed(name)


@pytest.mark.parametrize("factor, code", [(1.0, 0), (1.05, 1)])
def test_fidelity_gate_catches_a_coefficient_shift(bench, monkeypatch,
                                                   factor, code):
    """The real paper-fidelity measurement passes as committed and
    fails once one GT200 coefficient moves by 5%."""
    from repro.gpusim import gt200
    params = gt200.GT200_PARAMS
    monkeypatch.setattr(gt200, "GT200_PARAMS", dataclasses.replace(
        params, shared_cycle_ns=params.shared_cycle_ns * factor))
    module = importlib.import_module(GATES["paper_fidelity"][0])
    assert module.main([]) == code
