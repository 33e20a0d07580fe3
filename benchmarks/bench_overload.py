"""Overload-shedding baseline: goodput and shed behaviour at load 2.0.

A seeded multi-tenant overload run at ``overload_profiles(2.0)`` (twice
the capacity of 4-system chunks, about 1.14x the scheduler's estimate
with one-wave chunks, and less once same-plan requests share launches:
this seed sheds nothing) is measured and gated against the committed
baseline in ``benchmarks/results/overload.json``:

* goodput (completed requests / offered requests),
* shed rate by SLO class (interactive shedding must stay at zero),
* interactive p99 latency on the modeled clock.

Every run fails when goodput drops below 95% of baseline, interactive
p99 regresses more than 25% or exceeds its objective, any interactive
request is shed, or any request -- completed or shed -- finishes
before it arrives.  The gate's command line is described in
``benchmarks/results/README.md``.  Everything runs on the modeled
clock over derived seeds, so a regression here is a real
admission/shedding change, never machine noise.
"""

from __future__ import annotations

import sys

from repro.gpusim.pool import make_pool
from repro.serve import BatchScheduler, FrontendConfig, ServeFrontend, loadgen

from _harness import gate

SEED = 42
HORIZON_MS = 3.0
LOAD = 2.0


def run_overload(seed: int = SEED):
    sched = BatchScheduler(make_pool(2, seed=5), checkpoint_every=2,
                           seed=seed)
    fe = ServeFrontend(sched, config=FrontendConfig())
    requests = loadgen.generate(
        loadgen.overload_profiles(LOAD, scenario="mixed", tenants=3),
        horizon_ms=HORIZON_MS, seed=seed)
    rep = fe.run(requests)
    fe.close()
    return rep


def measure() -> dict:
    rep = run_overload()
    total = len(rep.outcomes)
    lat = rep.latency_report()
    shed_by_class = rep.shed_by_class()
    return {
        "requests": total,
        "completed": len(rep.completed),
        "goodput": round(len(rep.completed) / total, 4),
        "shed_rate_by_class": {
            cls: round(n / total, 4)
            for cls, n in sorted(shed_by_class.items())},
        "interactive_p99_ms": round(lat["interactive"]["p99"], 6),
        "interactive_objective_ms": lat["interactive"]["objective_p99_ms"],
        "downgrades": rep.downgrades,
        "finish_before_arrival": sum(o.finish_ms < o.arrival_ms
                                     for o in rep.outcomes),
    }


#: Interactive p99 may grow at most 25%; goodput keeps 95% of baseline.
BOUNDS = {"interactive_p99_ms": ("max", 1.25), "goodput": ("min", 0.95)}


def checks(s: dict) -> list[tuple[str, bool]]:
    p99, objective = s["interactive_p99_ms"], s["interactive_objective_ms"]
    early = s["finish_before_arrival"]
    return [
        ("no interactive request shed at load 2.0",
         s["shed_rate_by_class"].get("interactive", 0.0) == 0.0),
        (f"no request finishes before it arrives ({early} did)",
         early == 0),
        (f"interactive p99 {p99:.3f}ms within its {objective:.1f}ms "
         f"objective", p99 <= objective),
    ]


def main(argv=None) -> int:
    return gate("overload", "overload", measure, argv, bounds=BOUNDS,
                checks=checks)


def test_overload(benchmark):
    assert main([]) == 0
    benchmark(lambda: run_overload().shed_by_class())


if __name__ == "__main__":
    sys.exit(main())
