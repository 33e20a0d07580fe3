"""Serve-layer latency baseline: per-class p50/p99 on the modeled clock.

A seeded, fully deterministic serve workload (healthy pool plus a
hot-device pool, one job per SLO class) is folded into the streaming
latency histograms and compared against the committed baseline in
``benchmarks/results/serve_latency.json``:

* ``--update`` rewrites the baseline from the current run;
* ``--check`` (the CI perf-smoke mode) exits nonzero when any
  per-class modeled p99 regresses more than 25% over the baseline.

Because every quantity is modeled milliseconds over derived seeds,
a regression here is a real scheduling/cost-model change, never
machine noise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.gpusim.pool import make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.serve import BatchScheduler, SolveJob

from _harness import RESULTS_DIR, emit, quiet, table

BASELINE_PATH = os.path.join(RESULTS_DIR, "serve_latency.json")
P99_REGRESSION_LIMIT = 1.25

#: (slo_class, num_systems, n) -- one workload per class tier.
WORKLOADS = [
    ("interactive", 8, 32),
    ("standard", 24, 64),
    ("batch", 48, 128),
]


def run_workload(seed: int = 9) -> BatchScheduler:
    """One deterministic serve session: healthy traffic plus a job
    that has to route around a dead device."""
    pool = make_pool(3, seed=seed, hot=1,
                     hot_rates={"launch_fatal_rate": 1.0})
    sched = BatchScheduler(pool, failure_threshold=2, seed=seed)
    reports = []
    for cls, num_systems, n in WORKLOADS:
        for rep in range(3):
            systems = diagonally_dominant_fluid(num_systems, n,
                                                seed=seed + rep)
            reports.append(sched.run_job(SolveJob(
                job_id=f"{cls}{rep}", systems=systems, method="cr_pcr",
                chunk_size=4, slo_class=cls)))
    assert all(r.completed for r in reports), "baseline jobs must finish"
    return sched


def measure() -> dict:
    with quiet():
        sched = run_workload()
    snap = sched.slo.snapshot()
    out = {}
    for cls, _, _ in WORKLOADS:
        lat = snap[cls]["latency_ms"]
        out[cls] = {"jobs": snap[cls]["jobs"],
                    "p50_ms": round(lat["p50"], 6),
                    "p99_ms": round(lat["p99"], 6)}
    return out


def load_baseline() -> dict | None:
    try:
        with open(BASELINE_PATH) as fh:
            return json.load(fh)["data"]["classes"]
    except (OSError, KeyError, ValueError):
        return None


def build_report(check: bool) -> tuple[str, dict, bool]:
    current = measure()
    baseline = load_baseline()
    rows, failures = [], []
    for cls, stats in current.items():
        base = (baseline or {}).get(cls)
        base_p99 = base["p99_ms"] if base else None
        ratio = (stats["p99_ms"] / base_p99
                 if base_p99 else float("nan"))
        verdict = "-"
        if base_p99:
            verdict = "ok" if ratio <= P99_REGRESSION_LIMIT else "REGRESSED"
            if check and ratio > P99_REGRESSION_LIMIT:
                failures.append(
                    f"{cls}: p99 {stats['p99_ms']:.3f}ms vs baseline "
                    f"{base_p99:.3f}ms ({ratio:.2f}x > "
                    f"{P99_REGRESSION_LIMIT:.2f}x)")
        rows.append([cls, stats["jobs"], f"{stats['p50_ms']:.3f}",
                     f"{stats['p99_ms']:.3f}",
                     f"{base_p99:.3f}" if base_p99 else "-",
                     f"{ratio:.2f}x" if base_p99 else "-", verdict])
    text = table(["class", "jobs", "p50_ms", "p99_ms",
                  "baseline_p99", "ratio", "verdict"], rows)
    if baseline is None:
        text += "\nno committed baseline; run with --update to record one"
    for line in failures:
        text += f"\nFAIL: {line}"
    ok = not failures
    data = {"classes": current, "limit": P99_REGRESSION_LIMIT, "ok": ok}
    return text, data, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the committed baseline from this run")
    ap.add_argument("--check", action="store_true",
                    help="fail if p99 regresses >25%% vs the baseline")
    args = ap.parse_args(argv)
    text, data, ok = build_report(check=args.check)
    if args.update:
        emit("serve_latency", text, data)
        print(f"baseline updated: {BASELINE_PATH}")
        return 0
    print(text)
    return 0 if ok else 1


def test_serve_latency(benchmark):
    text, data, ok = build_report(check=True)
    assert ok, text
    benchmark(lambda: run_workload().slo.snapshot())


if __name__ == "__main__":
    sys.exit(main())
