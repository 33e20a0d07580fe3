"""One-shot reproduction report: regenerate the paper's evaluation as
a Markdown document (or machine-readable JSON) from the library's own
APIs.

``python -m repro report [-o FILE] [--json]`` produces a
self-contained paper-vs-model summary (rankings, phase breakdowns,
bank conflicts, switch points, accuracy) without touching the
benchmarks directory -- useful as a smoke-level artifact for CI or for
checking a modified cost model / kernel against the published numbers
quickly.  Every section is computed once into plain data
(:func:`report_data`) and then rendered, so the JSON and Markdown
variants can never drift apart.
"""

from __future__ import annotations

import json
import warnings

from repro import paper


def _md_table(headers, rows) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(
            f"{v:.4f}" if isinstance(v, float) else str(v)
            for v in row) + " |")
    return "\n".join(out)


# ----------------------------------------------------------------------
# Section data
# ----------------------------------------------------------------------

def _data_totals() -> dict:
    from repro.analysis.timing import modeled_grid_timing

    solvers = {}
    for name, published in paper.TOTAL_MS.items():
        t = modeled_grid_timing(name, paper.N, paper.NUM_SYSTEMS,
                                intermediate_size=paper.BEST_M.get(name))
        solvers[name] = {"model_ms": t.solver_ms, "paper_ms": published,
                         "error": (t.solver_ms - published) / published}
    order = sorted(solvers, key=lambda n: solvers[n]["model_ms"])
    paper_order = sorted(paper.TOTAL_MS, key=paper.TOTAL_MS.get)
    return {"solvers": solvers, "ranking": order,
            "paper_ranking": paper_order,
            "ranking_matches_paper": order == paper_order}


def _data_phases() -> dict:
    from repro.analysis.differential import phase_breakdown
    from repro.kernels.api import run_kernel
    from repro.numerics.generators import diagonally_dominant_fluid

    s = diagonally_dominant_fluid(2, 512, seed=0)
    _x, res = run_kernel("cr", s)
    return {"phases": [{"phase": name, "ms": ms, "share": frac}
                       for name, ms, frac
                       in phase_breakdown(res, merge_global=True)],
            "paper_shares": dict(paper.CR_PHASE_SHARE)}


def _data_conflicts() -> list[dict]:
    from repro.analysis.bankconflict import forward_reduction_conflicts
    from repro.numerics.generators import diagonally_dominant_fluid

    s = diagonally_dominant_fluid(2, 512, seed=0)
    return [{"step": st.index + 1, "threads": st.active_threads,
             "degree": round(st.conflict_degree),
             "model_penalty": st.penalty, "paper_penalty": published}
            for st, published in zip(forward_reduction_conflicts(s),
                                     paper.CONFLICT_PENALTY)]


def _data_switch_points() -> dict:
    from repro.analysis.autotune import sweep_switch_point
    from repro.numerics.generators import diagonally_dominant_fluid

    s = diagonally_dominant_fluid(2, 512, seed=0)
    out = {}
    for inner in ("pcr", "rd"):
        sweep = sweep_switch_point(s, inner)
        out[inner] = {
            "best_m": sweep.best().intermediate_size,
            "paper_best_m": paper.BEST_M[f"cr_{inner}"],
            "curve": [{"m": p.intermediate_size, "ms": p.solver_ms}
                      for p in sweep.points]}
    return out


def _data_accuracy() -> dict:
    from repro.numerics.generators import (close_values,
                                           diagonally_dominant_fluid)
    from repro.numerics.residual import evaluate_accuracy
    from repro.solvers.api import SOLVERS

    dom = diagonally_dominant_fluid(16, 512, seed=0)
    close = close_values(16, 512, seed=1)
    out = {}
    for name in ("gep", "thomas", "cr", "pcr", "cr_pcr", "rd", "cr_rd"):
        entry = {}
        for label, s in (("diag_dominant", dom), ("close_values", close)):
            x = SOLVERS[name](s, intermediate_size=paper.BEST_M.get(name))
            r = evaluate_accuracy(name, s, x)
            entry[label] = ("overflow" if r.overflow_fraction > 0.5
                            else r.median_residual)
        out[name] = entry
    return out


def report_data() -> dict:
    """The full reproduction report as plain data (JSON-ready)."""
    import repro

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        totals = _data_totals()
        data = {
            "version": repro.__version__,
            "paper": "Zhang, Cohen & Owens, PPoPP 2010",
            "totals_512x512": totals,
            "cr_phases": _data_phases(),
            "fig9_conflicts": _data_conflicts(),
            "switch_points": _data_switch_points(),
            "accuracy": _data_accuracy(),
        }
        t = {k: v["model_ms"] for k, v in totals["solvers"].items()}
        data["headline"] = {
            "cr_pcr_vs_pcr_gain": 1 - t["cr_pcr"] / t["pcr"],
            "cr_pcr_vs_cr_gain": 1 - t["cr_pcr"] / t["cr"],
            "paper_gains": {"vs_pcr": paper.GAIN["cr_pcr", "pcr"],
                            "vs_cr": paper.GAIN["cr_pcr", "cr"]},
        }
    return data


# ----------------------------------------------------------------------
# Markdown rendering
# ----------------------------------------------------------------------

def _render_markdown(data: dict) -> str:
    out = []
    out.append("# Reproduction report\n")
    out.append(f"repro {data['version']} -- {data['paper']}.  Model "
               f"numbers come from the calibrated GT200 cost model on "
               f"exactly-measured kernel traces; accuracy numbers are "
               f"real float32 arithmetic.\n")

    totals = data["totals_512x512"]
    out.append("## Solver totals at 512x512 (Fig 6)\n")
    rows = [[name, v["model_ms"], v["paper_ms"], f"{v['error']:+.1%}"]
            for name, v in totals["solvers"].items()]
    out.append(_md_table(["solver", "model ms", "paper ms", "error"],
                         rows))
    matches = ("matches" if totals["ranking_matches_paper"]
               else "DIFFERS FROM")
    out.append(f"\nranking: {' < '.join(totals['ranking'])} "
               f"({matches} the paper)\n")

    out.append("## CR phase structure (Fig 8)\n")
    rows = [[p["phase"], f"{p['share']:.1%}"]
            for p in data["cr_phases"]["phases"]]
    out.append(_md_table(["phase", "share"], rows))
    out.append("\n(paper: global {:.0%}, forward {:.0%}, solve-2 {:.0%}, "
               "backward {:.0%})\n".format(
                   *data["cr_phases"]["paper_shares"].values()))

    out.append("## Bank conflicts in CR forward reduction (Fig 9)\n")
    rows = [[c["step"], c["threads"], c["degree"],
             f"{c['model_penalty']:.1f}x", f"{c['paper_penalty']:.1f}x"]
            for c in data["fig9_conflicts"]]
    out.append(_md_table(["step", "threads", "n-way", "model penalty",
                          "paper"], rows))
    out.append("")

    out.append("## Hybrid switch points (Fig 17)\n")
    for inner, sp in data["switch_points"].items():
        pts = ", ".join(
            f"m={p['m']}:" + ("inf" if p["ms"] is None else f"{p['ms']:.3f}")
            for p in sp["curve"])
        out.append(f"- CR+{inner.upper()}: best m = {sp['best_m']} "
                   f"(paper: {sp['paper_best_m']}); curve [{pts}]")
    out.append("")

    out.append("## Accuracy (Fig 18, float32, real arithmetic)\n")
    rows = []
    for name, entry in data["accuracy"].items():
        rows.append([name] + [
            v if isinstance(v, str) else f"{v:.1e}"
            for v in (entry["diag_dominant"], entry["close_values"])])
    out.append(_md_table(["solver", "diag dominant", "close values"],
                         rows))
    out.append("")

    h = data["headline"]
    out.append("## Headline\n")
    out.append(f"- CR+PCR improves PCR by {h['cr_pcr_vs_pcr_gain']:.0%} "
               f"(paper: {h['paper_gains']['vs_pcr']:.0%}) and CR by "
               f"{h['cr_pcr_vs_cr_gain']:.0%} "
               f"(paper: {h['paper_gains']['vs_cr']:.0%}).\n")
    return "\n".join(out)


def generate_report() -> str:
    """Build the full Markdown report (takes a few seconds)."""
    return _render_markdown(report_data())


def main(output: str | None = None, as_json: bool = False) -> int:
    text = (json.dumps(report_data(), indent=2) if as_json
            else generate_report())
    if output:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {output}")
    else:
        print(text)
    return 0
