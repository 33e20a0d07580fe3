"""End-to-end and per-layer benchmark of the tridiagonal-solver stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_overload --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``serve_overload``, ``serve_faults`` and ``paper_grid``
(see ``workloads.py``).  The program is imported from the checkout's
``src``; nothing is installed.

Two clocks are reported.  *Host* metrics are wall time of this Python
process and carry the noise; they are scaled to a reference host by an
interleaved calibration unit (see ``hostclock.py``).  *Modeled*
metrics and counts come from the deterministic GT200 simulator and
repeat exactly for a seed.

``--trace 0`` measures the end-to-end metrics with the benchmark's own
layer spans off.  ``setup_s`` is the median of several fresh child
processes that import and build the program (``setup_probe.py``);
input generation and the warm-up pass are outside it.  Sessions then
cycle through the workload's seeded streams until ``--seconds`` have
passed, every stream ran and at least ``MIN_OPS`` operations
completed, so ten samples lie beyond the p99.  Throughput uses each
stream's median session wall; exact metrics come from the first
session of each stream.

``--trace 1`` gives the per-layer metrics of the first
``TRACE_STREAMS`` streams.  It runs each of them untraced (as
``--trace 0``), traced (every layer entry point of ``layers.py``
wrapped in a span) and, on serve, with the telemetry collector off.
The traced-vs-untraced wall is the tracing overhead, the
untraced-vs-collector-off wall the telemetry overhead.

Every session checks its outputs: each completed serve request passes
a float64 relative-residual check against its job's tolerance, each
grid cell its §5.4 budget against the float64 pivoting oracle.  Every
session of a run, with or without tracing or telemetry, must reproduce
the first session of its stream bit for bit (outputs, shed set,
modeled results and counts), and so must every later run of the same
seed with the same code in the same checkout (recorded under
``.perfbench/records``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Shed requests are
a typed decision, not a failure: they are counted apart and lower
``goodput``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter

import workloads
from hostclock import CAL_REF_S, SETUP_UNITS, CalibrationUnit
from workloads import WORKLOADS, percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench")

#: Operations a ``--trace 0`` run completes at least (p99 support).
MIN_OPS = 1000
#: Streams a ``--trace 1`` run covers.
TRACE_STREAMS = 4
#: Timed set-up probes per run (after one untimed probe that compiles
#: the bytecode cache).
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("systems_per_s", "1/s"),
    ("host_ms_p50", "ms"),
    ("host_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
    ("goodput", "frac"),
    ("modeled_us_per_system", "modeled_us"),
)

#: Kernel phases of the five paper solvers and the serve chunks; any
#: other phase lands in ``modeled.phase.other_ms``.
PHASES = (
    "global_load", "forward_reduction", "solve_two",
    "backward_substitution", "global_store", "global_load_setup", "scan",
    "solution_evaluation", "cr_forward_reduction", "copy_intermediate",
    "inner_forward_reduction", "inner_solve_two",
    "cr_backward_substitution", "rd_copy_setup", "rd_scan",
    "rd_solution_evaluation",
)

#: Exact per-session quantities reported as per-layer metrics.
EXACT_LAYER = (
    ("frontend.shed_frac", "frac"),
    ("frontend.downgrades", "count"),
    ("frontend.finish_before_arrival", "count"),
    ("frontend.modeled_ms_p50", "modeled_ms"),
    ("frontend.modeled_ms_p90", "modeled_ms"),
    ("frontend.modeled_ms_mean.interactive", "modeled_ms"),
    ("frontend.modeled_ms_mean.standard", "modeled_ms"),
    ("frontend.modeled_ms_mean.batch", "modeled_ms"),
    ("scheduler.chunks", "count"),
    ("scheduler.attempts", "count"),
    ("scheduler.useful_attempt_frac", "frac"),
    ("scheduler.retries", "count"),
    ("scheduler.hedges", "count"),
    ("scheduler.degraded_chunks", "count"),
    ("checkpoint.bytes", "B"),
    ("tracecache.hit_frac", "frac"),
    ("tracecache.bypass_frac", "frac"),
    ("tracecache.entries", "count"),
    ("telemetry.spans", "count"),
    ("modeled.h2d_ms", "modeled_ms"),
    ("modeled.d2h_ms", "modeled_ms"),
    ("modeled.launch_ms", "modeled_ms"),
    ("modeled.kernel_ms", "modeled_ms"),
) + tuple((f"modeled.phase.{p}_ms", "modeled_ms")
          for p in PHASES + ("other",))


def per_layer_metrics() -> tuple[tuple[str, str], ...]:
    from layers import LAYERS
    timed = tuple(m for layer in LAYERS
                  for m in ((f"{layer}.self_ms", "ms"),
                            (f"{layer}.calls", "count")))
    return timed + (
        ("kernels.host_ms_per_launch", "ms"),
        ("telemetry.overhead_frac", "frac"),
        ("bench.unattributed_frac", "frac"),
        ("bench.tracing_overhead_frac", "frac"),
    ) + EXACT_LAYER


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------

def probe_setup(workload: str, seed: int, scratch: str) -> list[float]:
    """Reference-host seconds from spawning a fresh interpreter to the
    program being built, once untimed and then ``SETUP_PROBES`` times.
    Each probe is scaled by the calibration units timed right before
    the spawn and, in the probe, right after the set-up."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "setup_probe.py")
    samples = []
    calibrate = CalibrationUnit()
    for i in range(SETUP_PROBES + 1):
        before = calibrate(SETUP_UNITS) / SETUP_UNITS
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, workload, str(seed), scratch],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit "
                               f"{proc.returncode}):\n{err}")
        if i:
            samples.append(elapsed * 2 * CAL_REF_S / (before + float(out)))
    return samples


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def run_e2e(wl, seconds: float, setup: list[float]):
    """Sessions cycle through the workload's streams until ``seconds``
    have passed, every stream ran and ``MIN_OPS`` operations completed."""
    sessions = []
    t0 = perf_counter()
    streams = len(wl.streams)
    while (len(sessions) < streams or perf_counter() - t0 < seconds
           or sum(len(s.op_s) for s in sessions) < MIN_OPS):
        sessions.append(wl.run(len(sessions) % streams))
    firsts = sessions[:streams]
    walls = [median(s.wall_s for s in sessions if s.stream == k)
             for k in range(streams)]
    op_ms = sorted(x * 1e3 for s in sessions for x in s.op_s)
    systems = sum(s.systems for s in firsts)
    metrics = {
        "setup_s": median(setup),
        "systems_per_s": systems / sum(walls),
        "host_ms_p50": percentile(op_ms, 50),
        "host_ms_p99": percentile(op_ms, 99),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "goodput": (sum(s.completed for s in firsts)
                    / sum(s.offered for s in firsts)),
        "modeled_us_per_system": (
            sum(s.exact["modeled.total_ms"] for s in firsts) * 1e3
            / max(1, systems)),
    }
    units = dict(END_TO_END)
    return sessions, {k: (metrics[k], units[k]) for k, _ in END_TO_END}


def exact_layer_values(sessions) -> dict:
    """Per-layer exact metrics of a set of sessions (one of each traced
    stream): their additive counts summed, then the ratios, percentiles
    and means over the sum."""
    total: dict[str, float] = {}
    latency: dict[str, list[float]] = {}
    for s in sessions:
        for k, v in s.exact.items():
            if k == "frontend.modeled_latency_ms":
                for cls, values in v.items():
                    latency.setdefault(cls, []).extend(values)
            else:
                total[k] = total.get(k, 0) + v
    out = {k: v for k, v in total.items() if k in dict(EXACT_LAYER)}
    out["frontend.shed_frac"] = (total.get("frontend.shed", 0)
                                 / max(1, total.get("frontend.offered", 0)))
    out["scheduler.useful_attempt_frac"] = (
        total.get("scheduler.useful_attempts", 0)
        / max(1, total.get("scheduler.attempts", 0)))
    consulted = max(1, sum(total.get(f"tracecache.{k}", 0)
                           for k in ("hits", "misses", "bypasses")))
    out["tracecache.hit_frac"] = total.get("tracecache.hits", 0) / consulted
    out["tracecache.bypass_frac"] = (total.get("tracecache.bypasses", 0)
                                     / consulted)
    out["tracecache.entries"] = (total.get("tracecache.entries", 0)
                                 / len(sessions))
    if latency:
        pooled = sorted(v for values in latency.values() for v in values)
        out["frontend.modeled_ms_p50"] = percentile(pooled, 50)
        out["frontend.modeled_ms_p90"] = percentile(pooled, 90)
        for cls, values in latency.items():
            out[f"frontend.modeled_ms_mean.{cls}"] = (
                sum(values) / len(values))
    known = {f"modeled.phase.{p}_ms" for p in PHASES}
    out["modeled.phase.other_ms"] = sum(
        v for k, v in total.items()
        if k.startswith("modeled.phase.") and k not in known)
    return out


def run_traced(wl, seconds: float):
    """Rounds over the first ``TRACE_STREAMS`` streams, each stream run
    untraced, traced and (serve) with the collector off, until
    ``seconds`` have passed."""
    from layers import LAYERS, Tracer
    streams = range(min(TRACE_STREAMS, len(wl.streams)))
    rounds = []
    t0 = perf_counter()
    while not rounds or perf_counter() - t0 < seconds:
        rnd = {"plain": [], "traced": [], "summary": [], "off": []}
        for k in streams:
            rnd["plain"].append(wl.run(k))
            tracer = Tracer()
            rnd["traced"].append(wl.run(k, tracer=tracer))
            rnd["summary"].append(tracer.summary(rnd["traced"][-1].raw_s))
            if wl.collector:
                rnd["off"].append(wl.run(k, collector=False))
        rounds.append(rnd)
    if tracer.missing:
        print(f"entry points not found: {tracer.missing}", file=sys.stderr)

    def calls(rnd) -> dict:
        return {layer: sum(s["calls"][layer] for s in rnd["summary"])
                for layer in LAYERS}

    if any(calls(rnd) != calls(rounds[0]) for rnd in rounds):
        raise RuntimeError("layer call counts differ between rounds")

    def wall(key) -> float:
        return median(sum(s.wall_s for s in rnd[key]) for rnd in rounds)

    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = median(
            sum(m["self_s"][layer] * 1e3 * t.wall_s / t.raw_s
                for m, t in zip(rnd["summary"], rnd["traced"]))
            for rnd in rounds)
        values[f"{layer}.calls"] = calls(rounds[0])[layer]
    values["kernels.host_ms_per_launch"] = (
        values["kernels.self_ms"] / max(1, values["kernels.calls"]))
    values["telemetry.overhead_frac"] = (
        wall("plain") / wall("off") - 1 if wl.collector else 0.0)
    values["bench.unattributed_frac"] = median(
        sum(m["unattributed_s"] for m in rnd["summary"])
        / sum(t.raw_s for t in rnd["traced"]) for rnd in rounds)
    values["bench.tracing_overhead_frac"] = wall("traced") / wall("plain") - 1
    values.update(exact_layer_values(rounds[0]["plain"]))
    units = dict(per_layer_metrics())
    sessions = [s for rnd in rounds for key in ("plain", "traced", "off")
                for s in rnd[key]]
    return sessions, {k: (values.get(k, 0), units[k])
                      for k, _ in per_layer_metrics()}


def _outputs(s) -> dict:
    return {"digest": s.digest, "offered": s.offered,
            "completed": s.completed, "shed": s.shed, "failed": s.failed}


def _code_fingerprint() -> str:
    """Digest of the program and benchmark sources: records are compared
    only between runs of the same code."""
    h = hashlib.sha256()
    for top in (workloads.SRC, os.path.dirname(os.path.abspath(__file__))):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def check_records(workload: str, seed: int, sessions) -> list[str]:
    """Every session must reproduce the first session of its stream bit
    for bit -- outputs, shed set, modeled results and counts, whether
    traced, with telemetry or without -- and so must every earlier run
    of the same seed in this checkout."""
    problems = []
    firsts = {}
    for s in sessions:
        first = firsts.setdefault(s.stream, s)
        common = set(first.exact) & set(s.exact)
        if _outputs(s) != _outputs(first) or any(
                first.exact[k] != s.exact[k] for k in common):
            problems.append(f"sessions of stream {s.stream} disagree")
    records = os.path.join(STATE, "records", _code_fingerprint())
    for k, first in sorted(firsts.items()):
        record = dict(_outputs(first), exact=first.exact)
        path = os.path.join(records, f"{workload}-seed{seed}-stream{k}.json")
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(record, fh, sort_keys=True)
            continue
        with open(path) as fh:
            old = json.load(fh)
        if {k2: v for k2, v in old.items() if k2 != "exact"} != _outputs(
                first) or any(old["exact"][k2] != v
                              for k2, v in first.exact.items()
                              if k2 in old["exact"]):
            problems.append(f"stream {k} differs from an earlier run of "
                            f"seed {seed}")
    return problems


def check_metric_names(trace: bool, metrics: dict) -> None:
    """The printed metrics are exactly those ``BENCHMARK.json`` lists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as fh:
        spec = json.load(fh)
    declared = [m["name"] for m in spec["per_layer" if trace
                                       else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(metrics))}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    scratch = os.path.join(STATE, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        setup = ([] if args.trace
                 else probe_setup(args.workload, args.seed, scratch))
        workloads.use_checkout_source()
        wl = workloads.Workload(args.workload, args.seed, scratch)
        wl.warm_up()
        if args.trace:
            sessions, metrics = run_traced(wl, args.seconds)
        else:
            sessions, metrics = run_e2e(wl, args.seconds, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    check_metric_names(bool(args.trace), metrics)

    problems = check_records(args.workload, args.seed, sessions)
    attempted = sum(s.offered for s in sessions)
    shed = sum(s.shed for s in sessions)
    failed = sum(s.failed for s in sessions)
    if failed:
        problems.append(f"{failed} operations failed their check")
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(sessions)} sessions, "
          f"{attempted} operations attempted, {shed} shed, "
          f"{failed} failed; calibration unit median "
          f"{median(s.unit_s for s in sessions) * 1e3:.3f} ms (reference "
          f"{CAL_REF_S * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
