"""Shared helpers for the figure/table benchmarks.

Every bench regenerates one table or figure of the paper, prints it,
and saves the text under ``benchmarks/results/``.  Benches are both
pytest-benchmark tests (``pytest benchmarks/ --benchmark-only``) and
standalone scripts (``python benchmarks/bench_fig6_gpu_solvers.py``).

The wall-clock quantity pytest-benchmark measures is the *library*
work (solving the batch, running the simulated kernel); the paper
numbers in the emitted tables come from the calibrated GT200 model.
The CI perf smokes instead run through :func:`gate`.
"""

from __future__ import annotations

import argparse
import json
import os
import warnings
from contextlib import contextmanager

from repro import paper

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The five GPU solvers, fastest first at 512x512 (Fig 6).
SOLVER_ORDER = sorted(paper.TOTAL_MS, key=paper.TOTAL_MS.get)


def emit(name: str, text: str, data=None) -> str:
    """Print a result block and persist it to benchmarks/results/.

    Besides the human-readable ``{name}.txt``, a structured
    ``{name}.json`` is written next to it so the bench trajectory is
    diffable across commits.  Benches pass ``data`` (any JSON-ready
    value -- typically a list of row dicts with solver, sizes and
    modeled ms); without it the text lines are archived as a fallback.
    """
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    payload = {"name": name}
    if data is not None:
        payload["data"] = data
    else:
        payload["text"] = text.splitlines()
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return text


def table(headers: list[str], rows: list[list]) -> str:
    """Plain-text table with right-aligned numeric columns."""
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.4f}"
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    def line(vals):
        return "  ".join(v.rjust(w) for v, w in zip(vals, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out += [line(r) for r in cells]
    return "\n".join(out)


@contextmanager
def quiet():
    """Context manager silencing the expected overflow warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


#: Bound operators: ``max``/``min`` cap or floor current/baseline at the
#: limit, ``eq`` requires the baseline value exactly.
BOUND_OPS = {
    "max": lambda cur, base, limit: cur <= base * limit,
    "min": lambda cur, base, limit: cur >= base * limit,
    "eq": lambda cur, base, limit: cur == base,
}


def _flatten(section, path: str = "") -> dict:
    """Leaves of a recorded section as ``{path: value}``: dict entries
    join by ``.``, list rows are labelled ``[i]`` by position."""
    if isinstance(section, list):
        return {p: v for i, row in enumerate(section)
                for p, v in _flatten(row, f"{path}[{i}]").items()}
    if isinstance(section, dict):
        return {p: v for k, sub in section.items()
                for p, v in _flatten(sub, f"{path}.{k}".lstrip(".")).items()}
    return {path: section}


def _section_table(section) -> str:
    if isinstance(section, list):
        headers = list(section[0])
        return table(["row"] + headers,
                     [[f"[{i}]"] + [r[h] for h in headers]
                      for i, r in enumerate(section)])
    return table(["metric", "value"],
                 [[p, v] for p, v in _flatten(section).items()])


def _load_baseline(name: str, key: str):
    try:
        with open(os.path.join(RESULTS_DIR, f"{name}.json")) as fh:
            return json.load(fh)["data"][key]
    except (OSError, KeyError, ValueError):
        return None


def gate(name: str, key: str, measure, argv=None, *, bounds=None,
         checks=None, quick=None) -> int:
    """Run one perf gate and return its exit code (0 pass, 1 fail).

    ``measure()`` returns the section recorded as ``data[key]`` of
    ``results/{name}.json``.  ``bounds`` maps a leaf name of that section
    to ``(op, limit)`` (see :data:`BOUND_OPS`), compared against the
    committed baseline wherever the baseline has the same path.
    ``checks(section)`` returns ``(rule, holds)`` pairs for rules that
    need no baseline.  ``--update`` records the run (gated against
    itself, so recording twice writes the same files); ``quick`` is a
    cheaper measurement offered as ``--quick``, never recorded.
    """
    ap = argparse.ArgumentParser(
        description=f"{name} perf gate (see benchmarks/results/README.md)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--update", action="store_true",
                      help=f"record this run as results/{name}.{{txt,json}}")
    if quick is not None:
        mode.add_argument("--quick", action="store_true",
                          help="smaller grid (never recorded)")
    args = ap.parse_args(argv)
    with quiet():
        section = (quick if getattr(args, "quick", False) else measure)()
    baseline = section if args.update else _load_baseline(name, key)

    lines = [_section_table(section)]
    if baseline is None:
        lines.append("no committed baseline; run with --update to record one")
    verdicts = []
    base_flat = _flatten(baseline) if baseline is not None else {}
    for path, cur in _flatten(section).items():
        bound = (bounds or {}).get(path.rsplit(".", 1)[-1])
        if bound is None or path not in base_flat:
            continue
        op, limit = bound
        base = base_flat[path]
        rule = op if op == "eq" else f"{op} {limit}x"
        verdicts.append((f"{path} {cur} vs baseline {base} ({rule})",
                         BOUND_OPS[op](cur, base, limit)))
    verdicts += checks(section) if checks else []
    lines += [f"{'ok' if holds else 'FAIL'}: {rule}"
              for rule, holds in verdicts]
    ok = all(holds for _, holds in verdicts)
    lines.append(f"gate: {'PASS' if ok else 'FAIL'}")
    text = "\n".join(lines)
    if args.update:
        emit(name, text, {key: section})
    else:
        print(text)
    return 0 if ok else 1
