"""Serve-layer latency baseline: per-class p50/p99 on the modeled clock.

A seeded, fully deterministic serve workload (healthy pool plus a
hot-device pool, one job per SLO class) is folded into the streaming
latency histograms and gated against the committed baseline in
``benchmarks/results/serve_latency.json``: every run fails when any
per-class modeled p99 regresses more than 25% over the baseline.  The
gate's command line is described in ``benchmarks/results/README.md``.

Because every quantity is modeled milliseconds over derived seeds,
a regression here is a real scheduling/cost-model change, never
machine noise.
"""

from __future__ import annotations

import sys

from repro.gpusim.pool import make_pool
from repro.numerics.generators import diagonally_dominant_fluid
from repro.serve import BatchScheduler, HealthPolicy, SolveJob

from _harness import gate

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
    sched = BatchScheduler(pool, seed=seed,
                           health_policy=HealthPolicy(failure_threshold=2))
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
    sched = run_workload()
    snap = sched.slo.snapshot()
    out = {}
    for cls, _, _ in WORKLOADS:
        lat = snap[cls]["latency_ms"]
        out[cls] = {"jobs": snap[cls]["jobs"],
                    "p50_ms": round(lat["p50"], 6),
                    "p99_ms": round(lat["p99"], 6)}
    return out


#: Per-class modeled p99 may grow at most 25% over the baseline.
BOUNDS = {"p99_ms": ("max", 1.25)}


def main(argv=None) -> int:
    return gate("serve_latency", "classes", measure, argv, bounds=BOUNDS)


def test_serve_latency(benchmark):
    assert main([]) == 0
    benchmark(lambda: run_workload().slo.snapshot())


if __name__ == "__main__":
    sys.exit(main())
