"""Vectorized-engine speedup bench with a bitwise-equality gate.

Runs a solver x size grid twice -- once on the default batched
:class:`~repro.gpusim.engine.VectorizedEngine` via ``launch()`` and
once through the per-lane oracle
:func:`~repro.gpusim.executor._reference_execute` -- on the same
systems.  Both are raw launches of the kernel's plan, so both sides
record their trace and do the full simulation work.

Two things gate the exit code:

* **Correctness**: every grid cell's ledgers, step records and float32
  solutions must be bitwise identical between the engines.  Any
  mismatch fails the bench regardless of speed -- a fast engine that
  drifts from the oracle is a broken engine.
* **Speed**: the aggregate reference/vectorized wall-clock ratio over
  the grid must be at least 10x.  The grid uses n >= 128 and 8
  systems per batch because that is the regime the batched engine
  exists for; at n = 32 with one system the two engines are within a
  small constant of each other by design.

The gate's command line is described in
``benchmarks/results/README.md``; ``--quick`` (the CI smoke) times
n = 256 and 512 once each instead of n = 128..512 three times.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from _harness import SOLVER_ORDER, gate

from repro.gpusim import ledgers_equal
from repro.gpusim.executor import _reference_execute, launch
from repro.kernels.api import plan_launch
from repro.numerics.generators import diagonally_dominant_fluid

#: Systems per batch.  The batched engine amortizes per-step work
#: across the whole batch; the per-lane oracle pays it per block.
NUM_SYSTEMS = 8

FULL_SIZES = (128, 256, 512)
QUICK_SIZES = (256, 512)


def _time_cell(method, n, repeats):
    """One grid cell under both engines: (vec_s, ref_s, mismatches)."""
    plan = plan_launch(method, n, NUM_SYSTEMS)
    args = dict(num_blocks=plan.num_blocks,
                threads_per_block=plan.threads_per_block,
                **dict(plan.kwargs))
    systems = diagonally_dominant_fluid(NUM_SYSTEMS, n, seed=0)
    mismatches = []

    vec_s = ref_s = 0.0
    for _ in range(repeats):
        gmem_vec = plan.load(systems)
        t0 = time.perf_counter()
        vec = launch(plan.kernel, gmem=gmem_vec, **args)
        vec_s += time.perf_counter() - t0

        gmem_ref = plan.load(systems)
        t0 = time.perf_counter()
        ref = _reference_execute(plan.kernel, gmem=gmem_ref, **args)
        ref_s += time.perf_counter() - t0

        mismatches += [f"{method} n={n}: {m}"
                       for m in ledgers_equal(vec.ledger, ref.ledger)]
        if vec.ledger.step_records != ref.ledger.step_records:
            mismatches.append(f"{method} n={n}: step records differ")
        if not np.array_equal(gmem_vec.solution().view(np.uint32),
                              gmem_ref.solution().view(np.uint32)):
            mismatches.append(f"{method} n={n}: solutions differ bitwise")
    return vec_s, ref_s, mismatches


def measure(sizes=FULL_SIZES, repeats: int = 3) -> list[dict]:
    rows = []
    for method in SOLVER_ORDER:
        for n in sizes:
            vec_s, ref_s, bad = _time_cell(method, n, repeats)
            for line in bad:
                print(f"mismatch: {line}")
            rows.append({"solver": method, "n": n,
                         "num_systems": NUM_SYSTEMS, "repeats": repeats,
                         "vectorized_ms": 1e3 * vec_s / repeats,
                         "reference_ms": 1e3 * ref_s / repeats,
                         "speedup": ref_s / vec_s if vec_s else float("inf"),
                         "bitwise_equal": not bad})
    return rows


def checks(rows: list[dict]) -> list[tuple[str, bool]]:
    aggregate = (sum(r["reference_ms"] for r in rows)
                 / sum(r["vectorized_ms"] for r in rows))
    differ = [f"{r['solver']} n={r['n']}" for r in rows
              if not r["bitwise_equal"]]
    return [
        (f"aggregate speedup {aggregate:.1f}x over the per-lane oracle, "
         f"floor 10x", aggregate >= 10.0),
        ("ledgers, step records and solutions bitwise equal the oracle"
         + (f" (differ: {', '.join(differ)})" if differ else ""),
         not differ),
    ]


def main(argv=None) -> int:
    return gate("vectorized_engine", "rows", measure, argv, checks=checks,
                quick=lambda: measure(QUICK_SIZES, repeats=1))


if __name__ == "__main__":
    sys.exit(main())
