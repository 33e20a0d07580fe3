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
  the grid must be at least ``SPEEDUP_FLOOR`` (10x).  The grid uses
  n >= 256 and 8 systems per batch because that is the regime the
  batched engine exists for; at n = 32 with one system the two
  engines are within a small constant of each other by design.

Usage::

    python benchmarks/bench_vectorized_engine.py          # full grid
    python benchmarks/bench_vectorized_engine.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _harness import SOLVER_ORDER, emit, table

from repro.gpusim import ledgers_equal
from repro.gpusim.executor import _reference_execute, launch
from repro.kernels.api import plan_launch
from repro.numerics.generators import diagonally_dominant_fluid

#: Aggregate reference/vectorized wall-clock floor enforced in CI.
SPEEDUP_FLOOR = 10.0

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


def build_report(quick: bool, repeats: int):
    sizes = QUICK_SIZES if quick else FULL_SIZES
    rows, data = [], []
    total_vec = total_ref = 0.0
    mismatches: list[str] = []
    for method in SOLVER_ORDER:
        for n in sizes:
            vec_s, ref_s, bad = _time_cell(method, n, repeats)
            mismatches += bad
            total_vec += vec_s
            total_ref += ref_s
            ratio = ref_s / vec_s if vec_s else float("inf")
            rows.append([method, n, f"{1e3 * vec_s / repeats:.2f}",
                         f"{1e3 * ref_s / repeats:.2f}", f"{ratio:.1f}x",
                         "ok" if not bad else "MISMATCH"])
            data.append({"solver": method, "n": n,
                         "num_systems": NUM_SYSTEMS, "repeats": repeats,
                         "vectorized_ms": 1e3 * vec_s / repeats,
                         "reference_ms": 1e3 * ref_s / repeats,
                         "speedup": ratio, "bitwise_equal": not bad})

    aggregate = total_ref / total_vec if total_vec else float("inf")
    ok = not mismatches and aggregate >= SPEEDUP_FLOOR
    lines = [table(["solver", "n", "vec ms", "ref ms", "speedup", "ledger"],
                   rows),
             "",
             f"aggregate speedup: {aggregate:.1f}x "
             f"(floor {SPEEDUP_FLOOR:.0f}x)",
             f"bitwise ledger/solution equality: "
             f"{'ok' if not mismatches else 'FAILED'}"]
    lines += [f"  {m}" for m in mismatches]
    lines.append(f"gate: {'PASS' if ok else 'FAIL'}")
    payload = {"rows": data, "aggregate_speedup": aggregate,
               "speedup_floor": SPEEDUP_FLOOR,
               "mismatches": mismatches, "gate": "pass" if ok else "fail"}
    return "\n".join(lines), payload, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: smaller grid, one repeat")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timed repeats per grid cell")
    args = ap.parse_args(argv)
    repeats = args.repeats or (1 if args.quick else 3)
    text, data, ok = build_report(args.quick, repeats)
    emit("vectorized_engine", text, data)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
