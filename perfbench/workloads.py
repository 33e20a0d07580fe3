"""The benchmark's three workloads: program set-up, seeded inputs, one
deterministic session, and the checks on its outputs.

A *session* is one fresh instance of the program serving the whole
seeded input once.  Sessions of one seed are identical on the modeled
clock, so every count and modeled quantity of a session repeats
exactly; only host time varies between them.

* ``serve_overload`` -- an open-loop stream at 2x the pool's capacity
  (``loadgen.overload_profiles(2.0, scenario="mixed", tenants=3)``) on
  a healthy 2-GPU pool, checkpointing off, front end inside a
  deterministic telemetry collector as ``repro serve --live`` runs it.
* ``serve_faults`` -- the same generator below capacity on 3 GPUs, one
  of them hot (transient launch faults, silent bit flips, a brownout
  window), plus a warm spare; hedging and checkpointing on.
* ``paper_grid`` -- one closed-loop caller running
  ``analysis.timing.timed_solve`` for the five paper solvers on the
  64^2..512^2 fluid batches of Fig 6 (right), PCIe priced.

The open loops run on the modeled clock: arrivals are modeled
timestamps, so the generator cannot fall behind on the host.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

from hostclock import SessionClock

WORKLOADS = ("serve_overload", "serve_faults", "paper_grid")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: The paper's solvers (Fig 6) and fluid batch sizes (n systems of n).
GRID_SOLVERS = ("cr", "pcr", "rd", "cr_pcr", "cr_rd")
GRID_SIZES = (64, 128, 256, 512)

#: Load multiplier, pool size, modeled horizon of one stream and
#: streams per run.  A run serves several independent seeded streams so
#: that its request mix, and with it goodput and the host-time
#: percentiles, varies little from seed to seed.
SERVE = {
    "serve_overload": {"load": 2.0, "devices": 2, "horizon_ms": 4.0,
                       "streams": 20},
    "serve_faults": {"load": 0.5, "devices": 3, "horizon_ms": 8.0,
                     "streams": 15},
}

#: The hot GPU of ``serve_faults``: transient launch faults (a launch
#: fails for good after three in a row), silent DRAM bit flips (caught
#: only by the residual gate) and a 1.5x brownout over modeled
#: [1, 9) ms.  Checked to give every run retries, hedges and CPU
#: degradations.
HOT_RATES = {"launch_transient_rate": 0.5, "global_bitflip_rate": 0.3,
             "ecc_detect_rate": 0.0}
BROWNOUT = {"start_ms": 1.0, "duration_ms": 8.0, "multiplier": 1.5}
HEDGE_RATIO = 1.25
CHECKPOINT_EVERY = 2


def use_checkout_source() -> None:
    """Import the program from this checkout's ``src`` and nowhere else,
    with one BLAS/OpenMP thread (the benchmark's processes run one at a
    time)."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise RuntimeError(f"no program source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"repro imported from {repro.__file__}, "
                           f"not from {SRC}")


# ----------------------------------------------------------------------
# Program set-up: what ``setup_s`` times (imports plus building)
# ----------------------------------------------------------------------

def _profiles(workload: str):
    from repro.serve import loadgen
    return loadgen.overload_profiles(SERVE[workload]["load"],
                                     scenario="mixed", tenants=3)


def build_frontend(workload: str, seed: int, profiles,
                   checkpoint_dir: str | None):
    """A fresh pool, scheduler and front end for one serve session."""
    from repro.gpusim.pool import make_pool
    from repro.serve import BatchScheduler, FrontendConfig, ServeFrontend

    devices = SERVE[workload]["devices"]
    if workload == "serve_faults":
        from repro.gpusim.faults import BrownoutProcess
        pool = make_pool(devices, seed=seed, hot=devices - 1,
                         hot_rates=dict(HOT_RATES),
                         hot_processes=(BrownoutProcess(**BROWNOUT),),
                         spares=1)
        sched = BatchScheduler(pool, seed=seed, hedge_ratio=HEDGE_RATIO,
                               checkpoint_dir=checkpoint_dir,
                               checkpoint_every=CHECKPOINT_EVERY)
    else:
        sched = BatchScheduler(make_pool(devices, seed=seed), seed=seed)
    return ServeFrontend(sched, [p.spec for p in profiles],
                         config=FrontendConfig())


@dataclass
class GridProgram:
    cost_model: object
    pcie: object


def setup_program(workload: str, seed: int, scratch: str):
    """Import and build the program as a user does before the first
    request: the front end and everything under it, or the cost and
    transfer models the grid is priced with."""
    if workload == "paper_grid":
        from repro.analysis.timing import timed_solve  # noqa: F401
        from repro.gpusim import PCIeModel, gt200_cost_model
        return GridProgram(gt200_cost_model(), PCIeModel())
    ckpt = (os.path.join(scratch, "setup-ckpt")
            if workload == "serve_faults" else None)
    fe = build_frontend(workload, seed, _profiles(workload), ckpt)
    fe.close()
    return fe


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------

@dataclass
class Session:
    """One session's host timings and its exact (deterministic) results."""

    stream: int
    #: Scaled host seconds of the session (see ``hostclock``).
    wall_s: float
    #: Scaled host seconds of each call that completed one operation.
    op_s: list[float]
    #: Raw host seconds of the session, calibration units left out.
    raw_s: float
    #: Median raw host seconds of the session's calibration units.
    unit_s: float
    offered: int
    completed: int          #: completed with a checked solution
    shed: int
    failed: int
    systems: int            #: systems in checked completed operations
    digest: str             #: outputs, shed set and modeled results
    exact: dict = field(default_factory=dict)


class Workload:
    """Seeded input streams plus the session runner of one workload.

    The grid's sizes are fixed, so it has one stream (the seed draws
    the systems' coefficients); a serve workload has
    ``SERVE[name]["streams"]`` request streams drawn from seeds derived
    from the run's seed.
    """

    def __init__(self, name: str, seed: int, scratch: str):
        from repro.gpusim.pool import derive_seed
        self.name = name
        self.seed = seed
        self.scratch = scratch
        self.collector = name != "paper_grid"
        if name == "paper_grid":
            self.program = setup_program(name, seed, scratch)
            from repro.numerics.generators import diagonally_dominant_fluid
            self.batches = [
                (n, diagonally_dominant_fluid(
                    n, n, seed=derive_seed(seed, "paper_grid", n)))
                for n in GRID_SIZES]
            self.streams = [seed]
            self._checked: dict[tuple[str, int], str] = {}
        else:
            from repro.serve import loadgen
            from repro.serve.job import SolveJob
            cfg = SERVE[name]
            self.profiles = _profiles(name)
            self.streams = [derive_seed(seed, "perfbench", k)
                            for k in range(cfg["streams"])]
            self.requests = [
                loadgen.generate(self.profiles, horizon_ms=cfg["horizon_ms"],
                                 seed=s) for s in self.streams]
            self.residual_tol = SolveJob.__dataclass_fields__[
                "residual_tol"].default

    def warm_up(self) -> None:
        """Fill lazy imports and process-wide memos before timing: one
        untimed pass over the grid, or the first half of stream 0."""
        if self.name == "paper_grid":
            self.run(0)
            return
        cut = SERVE[self.name]["horizon_ms"] / 2
        self._serve(0, [r for r in self.requests[0] if r.arrival_ms < cut],
                    tracer=None, collector=True, measure=False)

    def run(self, stream: int, tracer=None,
            collector: bool | None = None) -> Session:
        """One timed session of ``stream``; ``tracer`` wraps the layers,
        ``collector=False`` (serve only) turns the program's telemetry
        collector off."""
        if self.name == "paper_grid":
            return self._grid(tracer)
        return self._serve(stream, self.requests[stream], tracer=tracer,
                           collector=self.collector if collector is None
                           else collector)

    # -- serve ---------------------------------------------------------

    def _serve(self, stream: int, requests, *, tracer, collector: bool,
               measure: bool = True) -> Session | None:
        from repro import telemetry
        seed = self.streams[stream]
        ckpt = None
        if self.name == "serve_faults":
            ckpt = os.path.join(self.scratch, "ckpt")
            shutil.rmtree(ckpt, ignore_errors=True)
        fe = build_frontend(self.name, seed, self.profiles, ckpt)
        col = telemetry.deterministic_collector(seed) if collector else None
        frontend_cls = type(fe)
        clock = None

        def timed_dispatch():
            clock.tick()
            t0 = perf_counter()
            out = frontend_cls.dispatch_once(fe)
            if out is not None:
                clock.add_op(perf_counter() - t0)
            return out

        fe.dispatch_once = timed_dispatch
        gc.collect()
        with tracer if tracer is not None else nullcontext():
            clock = SessionClock()
            with telemetry.collect(col) if col is not None else nullcontext():
                report = fe.run(requests)
                fe.close()
            clock.stop()
        session = None
        if measure:
            session = self._check_serve(stream, requests, report, clock)
            session.exact.update(_serve_layer_counts(report, fe, col))
            session.exact["checkpoint.bytes"] = _dir_bytes(ckpt)
        if ckpt is not None:
            shutil.rmtree(ckpt, ignore_errors=True)
        return session

    def _check_serve(self, stream, requests, report, clock) -> Session:
        from repro.numerics.residual import relative_residual
        by_id = {r.request_id: r for r in requests}
        h = hashlib.sha256()
        completed = failed = systems = 0
        for out in report.outcomes:
            h.update(f"{out.request_id}|{out.state}|{out.slo_class}|"
                     f"{out.reason}|{out.finish_ms!r}".encode())
            if out.state != "completed":
                continue
            rep = out.report
            req = by_id[out.request_id]
            rel = relative_residual(req.systems, rep.x)
            if rep.ok and bool((rel <= self.residual_tol).all()):
                completed += 1
                systems += req.systems.num_systems
            else:
                failed += 1
            h.update(rep.solution_digest().encode())
            for ch in rep.chunks:
                h.update(f"{ch.status}|{ch.device}|{ch.modeled_ms!r}".encode())
                for a in ch.attempts:
                    h.update(f"{a.device}|{a.outcome}|{a.modeled_ms!r}"
                             .encode())
        return Session(stream=stream, wall_s=clock.wall_s, op_s=clock.op_s,
                       raw_s=clock.raw_s, unit_s=median(clock.units),
                       offered=len(requests), completed=completed,
                       shed=len(report.shed), failed=failed,
                       systems=systems, digest=h.hexdigest())

    # -- paper grid ----------------------------------------------------

    def _grid(self, tracer) -> Session:
        from repro.analysis.timing import timed_solve
        cache_scope = _fresh_trace_cache()
        prog = self.program
        results = []
        gc.collect()
        with cache_scope as cache, \
                tracer if tracer is not None else nullcontext():
            clock = SessionClock()
            for n, systems in self.batches:
                for name in GRID_SOLVERS:
                    clock.tick()
                    t0 = perf_counter()
                    results.append((name, n, timed_solve(
                        name, systems, cost_model=prog.cost_model,
                        pcie=prog.pcie)))
                    clock.add_op(perf_counter() - t0)
            clock.stop()
        session = self._check_grid(results, clock)
        session.exact.update(_cache_stats(cache))
        return session

    def _check_grid(self, results, clock) -> Session:
        h = hashlib.sha256()
        completed = failed = systems = 0
        totals = []
        terms = {"h2d_ms": [], "d2h_ms": [], "launch_ms": []}
        phases: dict[str, list[float]] = {}
        batches = dict(self.batches)
        for name, n, t in results:
            digest = hashlib.sha256(t.x.tobytes()).hexdigest()
            ok = self._cell_ok(name, n, batches[n], t.x, digest)
            completed += ok
            failed += not ok
            systems += n if ok else 0
            h.update(f"{name}|{n}|{digest}|{t.total_ms!r}".encode())
            # solver_roundtrip_ms: four input arrays down, the solution up.
            one_way = self.program.pcie.transfer_ms(n * n * 4)
            terms["h2d_ms"].append(4 * one_way)
            terms["d2h_ms"].append(one_way)
            if 4 * one_way + one_way != t.transfer_ms:
                raise RuntimeError(f"{name} n={n}: PCIe terms do not add "
                                   f"up to the priced transfer")
            terms["launch_ms"].append(t.report.launch_overhead_ms)
            for phase, pt in t.report.phases.items():
                phases.setdefault(phase, []).append(pt.total_ms)
            totals.append(t.total_ms)
        session = Session(stream=0, wall_s=clock.wall_s, op_s=clock.op_s,
                          raw_s=clock.raw_s, unit_s=median(clock.units),
                          offered=len(results), completed=completed, shed=0,
                          failed=failed, systems=systems,
                          digest=h.hexdigest())
        session.exact.update(modeled_tree(totals, terms, phases))
        return session

    def _cell_ok(self, name, n, systems, x, digest) -> bool:
        """The cell's solution is within its §5.4 budget against the
        float64 pivoting oracle; a repeat must be bitwise the same."""
        key = (name, n)
        if key in self._checked:
            return self._checked[key] == digest
        from repro.verify.budgets import budget_for
        from repro.verify.differential import CellSpec, judge
        from repro.verify.oracle import compare_to_oracle
        spec = CellSpec("sim", name, "global", "diagonally_dominant", n, n,
                        seed=self.seed)
        cell = judge(spec, budget_for(name, "diagonally_dominant"),
                     compare_to_oracle(systems, x))
        ok = cell.status != "fail"
        self._checked[key] = digest if ok else "fail"
        return ok


# ----------------------------------------------------------------------
# Exact per-session quantities
# ----------------------------------------------------------------------

def modeled_tree(totals, terms, phases) -> dict:
    """Per-term modeled tree (H2D, launch overhead, each kernel phase,
    D2H) whose parts must add up to the modeled total of the session."""
    from math import fsum
    out = {f"modeled.{k}": fsum(v) for k, v in terms.items()}
    out["modeled.kernel_ms"] = fsum(fsum(v) for v in phases.values())
    for phase, values in phases.items():
        out[f"modeled.phase.{phase}_ms"] = fsum(values)
    total = fsum(totals)
    parts = fsum(v for k, v in out.items()
                 if k != "modeled.kernel_ms")
    if abs(parts - total) > 1e-12 * total:
        raise RuntimeError(f"modeled terms sum to {parts!r} ms, "
                           f"the modeled total is {total!r} ms")
    out["modeled.total_ms"] = total
    return out


def _serve_modeled(col) -> dict:
    """The serve per-term tree from the program's own telemetry: every
    cost-model report (chunks, retries, hedges, canaries) adds its
    phases and one launch overhead."""
    from repro.gpusim import gt200_cost_model
    m = col.metrics
    total = [v for v in m.counter("model.total_ms").series.values()]
    reports = sum(m.counter("model.reports").series.values())
    overhead = gt200_cost_model().params.launch_overhead_ns * 1e-6
    phases: dict[str, list[float]] = {}
    for key, v in m.counter("model.phase_ms").series.items():
        phases.setdefault(dict(key)["phase"], []).append(v)
    terms = {"h2d_ms": [0.0], "d2h_ms": [0.0],
             "launch_ms": [overhead] * int(reports)}
    return modeled_tree(total, terms, phases)


def _serve_layer_counts(report, fe, col) -> dict:
    """Additive per-session counts of the serve layers, plus each
    completed request's modeled latency by class."""
    out = {"frontend.offered": len(report.outcomes),
           "frontend.shed": len(report.shed),
           "frontend.downgrades": report.downgrades}
    for key in ("frontend.finish_before_arrival", "scheduler.chunks",
                "scheduler.attempts", "scheduler.useful_attempts",
                "scheduler.retries", "scheduler.hedges",
                "scheduler.degraded_chunks"):
        out[key] = 0
    latency: dict[str, list[float]] = {}
    for req in report.completed:
        latency.setdefault(req.slo_class, []).append(req.latency_ms)
        out["frontend.finish_before_arrival"] += (
            req.finish_ms < req.arrival_ms)
        for ch in req.report.chunks:
            out["scheduler.chunks"] += 1
            out["scheduler.degraded_chunks"] += ch.status == "degraded"
            for a in ch.attempts:
                out["scheduler.attempts"] += 1
                out["scheduler.useful_attempts"] += a.outcome == "ok"
                out["scheduler.retries"] += a.outcome in (
                    "launch_error", "corruption", "timeout", "residual")
                out["scheduler.hedges"] += a.outcome in (
                    "hedge_cancelled", "hedge_failed")
    out["frontend.modeled_latency_ms"] = {
        cls: sorted(v) for cls, v in sorted(latency.items())}
    out.update(_cache_stats(getattr(fe.scheduler.pool, "trace_cache", None)))
    if col is not None:
        out["telemetry.spans"] = len(col.spans)
        out.update(_serve_modeled(col))
    return out


def percentile(sorted_values, pct: float) -> float:
    """Linear-interpolated percentile; refuses one with fewer than ten
    samples beyond it."""
    n = len(sorted_values)
    if n * (100 - pct) / 100 < 10:
        raise RuntimeError(f"p{pct:g} of {n} samples has fewer than ten "
                           f"samples beyond it")
    pos = (n - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (
        pos - lo)


def _fresh_trace_cache():
    """Scope the grid pass to an empty launch-trace memo, so every pass
    starts cold like a fresh process; a no-op once the memo is gone."""
    try:
        from repro.gpusim import tracecache
    except ImportError:
        return nullcontext()
    return tracecache.use_cache(tracecache.TraceCache(name="bench"))


def _cache_stats(cache) -> dict:
    stats = cache.stats() if cache is not None else {}
    return {f"tracecache.{k}": stats.get(k, 0)
            for k in ("hits", "misses", "bypasses", "entries")}


def _dir_bytes(path: str | None) -> int:
    if path is None or not os.path.isdir(path):
        return 0
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
