"""Table 1: complexity comparison of the five algorithms.

Prints the paper's closed forms next to counters measured from the
instrumented kernels at n = 512 (m = 256 for CR+PCR, 128 for CR+RD).
The wall-clock benchmark times one instrumented CR launch.
"""

import sys

import pytest

from repro.analysis.complexity import (compare, cr_complexity,
                                       cr_pcr_complexity, cr_rd_complexity,
                                       measured_complexity, pcr_complexity,
                                       rd_complexity)
from repro.kernels.api import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

from _harness import emit, quiet, table

N = 512
CONFIGS = [
    ("cr", None, cr_complexity(N)),
    ("pcr", None, pcr_complexity(N)),
    ("rd", None, rd_complexity(N)),
    ("cr_pcr", 256, cr_pcr_complexity(N, 256)),
    ("cr_rd", 128, cr_rd_complexity(N, 128)),
]


def build_table() -> str:
    rows = []
    with quiet():
        systems = diagonally_dominant_fluid(2, N, seed=0)
        for name, m, paper in CONFIGS:
            _x, res = run_kernel(name, systems, intermediate_size=m)
            meas = measured_complexity(name, res)
            ratios = compare(paper, meas)
            rows.append([
                name,
                paper.shared_accesses, meas.shared_accesses,
                paper.arithmetic_ops, meas.arithmetic_ops,
                paper.divisions, meas.divisions,
                paper.steps, meas.steps,
                paper.global_accesses, meas.global_accesses,
            ])
    return table(
        ["algorithm", "shared(paper)", "shared(meas)", "ops(paper)",
         "ops(meas)", "div(paper)", "div(meas)", "steps(p)", "steps(m)",
         "global(p)", "global(m)"],
        rows)


def test_table1_complexity(benchmark):
    text = build_table()
    emit("table1_complexity", text)
    with quiet():
        systems = diagonally_dominant_fluid(2, 128, seed=0)
        benchmark(lambda: run_kernel("cr", systems))


if __name__ == "__main__":
    emit("table1_complexity", build_table())
