"""Fig 18-style accuracy study, plus the scaled-RD remedy.

Reproduces the paper's two accuracy experiments in float32 -- all seven
solvers on diagonally dominant fluid matrices and on close-values
matrices -- and then shows the §5.4 overflow remedy in action.

Run:  python examples/accuracy_study.py
"""

import warnings

import numpy as np

from repro import paper
from repro.numerics import (close_values, diagonally_dominant_fluid,
                            evaluate_accuracy, rd_overflow_risk,
                            scaled_recursive_doubling)
from repro.solvers.api import SOLVERS

warnings.simplefilter("ignore")

ORDER = ["gep", "thomas", "cr", "pcr", "cr_pcr", "rd", "cr_rd"]
LABEL = {"gep": "GEP (pivoting)", "thomas": "GE", "cr": "CR", "pcr": "PCR",
         "cr_pcr": "CR+PCR", "rd": "RD", "cr_rd": "CR+RD"}


def study(name, systems):
    print(f"\n--- {name} (512 unknowns, float32) ---")
    for solver in ORDER:
        x = SOLVERS[solver](systems, intermediate_size=paper.BEST_M.get(solver))
        res = evaluate_accuracy(LABEL[solver], systems, x)
        print("  " + res.summary())


def main() -> None:
    dom = diagonally_dominant_fluid(64, 512, seed=0)
    close = close_values(64, 512, seed=1)

    study("diagonally dominant (fluid-simulation matrices)", dom)
    study("close values in rows (not diagonally dominant)", close)

    print("\n--- the overflow remedy (paper SS5.4) ---")
    print(f"RD overflow risk predicted for the dominant batch: "
          f"{rd_overflow_risk(dom).mean():.0%} of systems")
    x_scaled = scaled_recursive_doubling(dom)
    print(f"scaled RD stays finite: {np.isfinite(x_scaled).all()}")
    print("(accuracy on dominant systems remains poor -- scaling fixes "
          "the overflow, not RD's conditioning; see DESIGN.md)")

    print("\ntakeaways (matching Fig 18):")
    print(" * pivoting (GEP) is the only method accurate on every class")
    print(" * CR/PCR/CR+PCR are reliable on diagonally dominant systems")
    print(" * RD and CR+RD overflow on dominant systems beyond n~64 and")
    print("   should only be used on matrices with close values in rows")


if __name__ == "__main__":
    main()
