"""Figure 18: accuracy (residual ||Ax - d||) of all seven solvers on
the two matrix classes, 512x512, float32.

Paper: diagonally dominant -> GEP ~1e-7...1e-6, GE/CR/PCR/CR+PCR small,
RD and CR+RD overflow.  Close values -> everyone finite, all residuals
worse, GEP best.  This experiment is fully real (no modeling): actual
float32 arithmetic, actual overflow.
"""

from repro import paper
from repro.numerics.generators import close_values, diagonally_dominant_fluid
from repro.numerics.residual import evaluate_accuracy
from repro.solvers.api import SOLVERS

from _harness import emit, quiet, table

SOLVER_ORDER = ["gep", "thomas", "cr", "pcr", "cr_pcr", "rd", "cr_rd"]
LABELS = {"gep": "GEP", "thomas": "GE", "cr": "CR", "pcr": "PCR",
          "cr_pcr": "CR+PCR", "rd": "RD", "cr_rd": "CR+RD"}


def run_class(generator, seed) -> dict:
    out = {}
    with quiet():
        s = generator(64, 512, seed=seed)
        for name in SOLVER_ORDER:
            x = SOLVERS[name](s, intermediate_size=paper.BEST_M.get(name))
            out[name] = evaluate_accuracy(LABELS[name], s, x)
    return out


def build_table() -> str:
    dom = run_class(diagonally_dominant_fluid, seed=0)
    close = run_class(close_values, seed=1)
    rows = []
    for name in SOLVER_ORDER:
        def cell(res):
            if res.overflow_fraction > 0.5:
                return "overflow"
            return f"{res.median_residual:.2e}"
        rows.append([LABELS[name], cell(dom[name]), cell(close[name])])
    note = ("paper (Fig 18): dominant residuals ~1e-7..1e-4 for "
            "GEP/GE/CR/PCR/CR+PCR, overflow for RD and CR+RD; "
            "close-values residuals 1e-3..1e-1 for all, GEP best.")
    return table(["solver", "diag_dominant", "close_values"], rows) \
        + "\n" + note


def test_fig18_accuracy(benchmark):
    emit("fig18_accuracy", build_table())
    with quiet():
        s = diagonally_dominant_fluid(64, 512, seed=0)
        benchmark(lambda: SOLVERS["cr_pcr"](s, intermediate_size=256))


if __name__ == "__main__":
    emit("fig18_accuracy", build_table())
