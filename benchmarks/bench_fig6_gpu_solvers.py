"""Figure 6: runtimes of the five GPU solvers across problem sizes
(``repro.paper.SIZES``), without (left) and with (right) CPU-GPU
transfer.

Paper reference points: the 512x512 totals ``repro.paper.TOTAL_MS``;
with transfer all solvers converge because PCIe dominates 90-95 %.
"""

from repro import paper
from repro.analysis.timing import modeled_grid_timing
from repro.solvers.api import SOLVERS
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import SOLVER_ORDER, emit, quiet, table


def build_tables() -> tuple[str, str, list, list]:
    rows_left, rows_right = [], []
    data_left, data_right = [], []
    with quiet():
        for S, n in paper.SIZES:
            left = [f"{S}x{n}"]
            right = [f"{S}x{n}"]
            for name in SOLVER_ORDER:
                t = modeled_grid_timing(name, n, S)
                left.append(t.solver_ms)
                right.append(t.total_ms)
                data_left.append({"solver": name, "num_systems": S,
                                  "n": n, "modeled_ms": t.solver_ms})
                data_right.append({"solver": name, "num_systems": S,
                                   "n": n, "modeled_ms": t.total_ms,
                                   "transfer_ms": t.transfer_ms})
            rows_left.append(left)
            rows_right.append(right)
    headers = ["size"] + SOLVER_ORDER
    return (table(headers, rows_left), table(headers, rows_right),
            data_left, data_right)


def _emit_all():
    left, right, data_left, data_right = build_tables()
    emit("fig6_left_without_transfer_ms", left, data=data_left)
    emit("fig6_right_with_transfer_ms", right, data=data_right)


def test_fig6_gpu_solvers(benchmark):
    _emit_all()
    # Wall-clock: the real library solving the flagship batch.
    with quiet():
        s = diagonally_dominant_fluid(512, 512, seed=0)
        benchmark(lambda: SOLVERS["cr_pcr"](s, intermediate_size=256))


if __name__ == "__main__":
    _emit_all()
