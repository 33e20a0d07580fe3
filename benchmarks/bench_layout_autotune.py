"""Layout autotuner bench: transaction counts, modeled costs, choices.

Sweeps a batch-shape grid spanning both regimes the paper's §5
coalescing argument predicts -- huge batches of tiny systems (where
the one-thread-per-system Thomas in the interleaved layout wins) down
to a single flagship n = 512 system (where the sequential hybrid
wins) -- and records, per shape:

* the global-memory transaction counts of the sequential vs the
  interleaved Thomas kernel (the coalescing ratio is the whole point
  of the layout),
* the autotuner's chosen ``(method, layout)`` and its predicted
  (analytic) cost.

Every run is gated against the committed baseline in
``benchmarks/results/layout_autotune.json``: it fails when a choice
flips or a coalescing ratio regresses below 90% of baseline, and when
the fold line moves (interleaved Thomas for the huge batch of tiny
systems, a sequential method for the single system).  The gate's
command line is described in ``benchmarks/results/README.md``.
Everything runs on the modeled clock, so failures are real model
changes, never machine noise.  (Analytic-vs-traced ledger equality is
enforced by ``tests/gpusim/test_estimator.py`` and by every sim cell
of ``repro verify``.)
"""

from __future__ import annotations

import sys

from _harness import gate

from repro.analysis.layout_autotuner import choose_layout
from repro.kernels import run_kernel
from repro.numerics.generators import diagonally_dominant_fluid

#: (num_systems, n) shapes: large-batch/small-n down to single large-n.
GRID = ((2048, 8), (1024, 16), (512, 32), (64, 64), (4, 256), (1, 512))


def measure() -> list[dict]:
    rows = []
    for num_systems, n in GRID:
        systems = diagonally_dominant_fluid(num_systems, n, seed=0)
        _, seq = run_kernel("thomas", systems, layout="sequential")
        _, inter = run_kernel("thomas", systems, layout="interleaved")
        tx_seq = seq.ledger.total().global_transactions
        tx_int = inter.ledger.total().global_transactions
        choice = choose_layout(num_systems, n)
        rows.append({
            "num_systems": num_systems, "n": n,
            "tx_sequential": int(tx_seq), "tx_interleaved": int(tx_int),
            "coalescing_ratio": round(tx_seq / tx_int, 4),
            "chosen": f"{choice.method}/{choice.layout}",
            "predicted_ms": round(choice.predicted_ms, 6),
        })
    return rows


#: A choice must not flip; a coalescing ratio keeps 90% of baseline.
BOUNDS = {"chosen": ("eq", None), "coalescing_ratio": ("min", 0.90)}


def checks(rows: list[dict]) -> list[tuple[str, bool]]:
    chosen = {(r["num_systems"], r["n"]): r["chosen"] for r in rows}
    return [
        (f"fold line: S=2048 n=8 chooses thomas/interleaved "
         f"({chosen[2048, 8]})", chosen[2048, 8] == "thomas/interleaved"),
        (f"fold line: S=1 n=512 chooses a sequential method "
         f"({chosen[1, 512]})", chosen[1, 512].endswith("/sequential")),
    ]


def main(argv=None) -> int:
    return gate("layout_autotune", "rows", measure, argv, bounds=BOUNDS,
                checks=checks)


def test_layout_autotune_baseline(benchmark):
    assert main([]) == 0
    benchmark(lambda: choose_layout(2048, 8).method)


if __name__ == "__main__":
    sys.exit(main())
