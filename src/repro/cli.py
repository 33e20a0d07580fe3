"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``      package, device and solver inventory
``verify``    headline-reproduction checks (ranking, switch points,
              overflow behaviour); ``--differential`` / ``--invariants``
              / ``--all`` add the oracle grid and the analytic-counter
              diff (``--json`` for the machine-readable report) --
              exits nonzero on failure
``fuzz``      seeded differential fuzzing: random solver/layout/class
              cells against the float64 oracle, corpus replay, and
              automatic shrinking of failures to minimal repro files
``analyze``   run a solver kernel on a synthetic batch and print the
              trace + optimization advisor output (``--json`` for the
              machine-readable trace)
``calibrate`` re-fit the GT200 cost model against the paper's numbers
``report``    generate a Markdown paper-vs-model reproduction report
              (``--json`` for plain data)
``profile``   run a solver workload under telemetry and export a
              Chrome trace, a JSONL event log and a text summary
``robust``    guarded solve on a synthetic batch, optionally under
              seeded fault injection; prints the per-system routing
              report (``--json`` for the machine-readable report);
              exits nonzero when any system exhausts the chain
``serve``     batch-solve demo over a simulated device pool, served
              through the front end: deadlines, admission and
              shedding, circuit breakers,
              checkpoint/resume; ``--report`` prints the per-class SLO
              table, ``--export-dir`` writes the Chrome trace / JSONL /
              Prometheus exposition (``--json`` for job reports +
              SLO snapshot + metrics)
``top``       deterministic `top`-style snapshot rendered from an
              exported telemetry JSONL log
``experiments`` list every reproduced table/figure/ablation and its bench
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings


def cmd_info(_args) -> int:
    import repro
    from repro.gpusim import GTX280
    from repro.solvers.api import SOLVERS

    print(f"repro {repro.__version__} -- reproduction of Zhang, Cohen & "
          f"Owens, 'Fast Tridiagonal Solvers on the GPU' (PPoPP 2010)")
    print(f"\nsimulated device: {GTX280.name}: {GTX280.num_sms} SMs x "
          f"{GTX280.cores_per_sm} cores, "
          f"{GTX280.shared_mem_per_sm // 1024} KiB shared/"
          f"{GTX280.shared_mem_banks} banks, warp {GTX280.warp_size}")
    print("\nsolvers (repro.solve(..., method=...)):")
    for name in SOLVERS:
        print(f"  {name}")
    print("\nextensions: block solvers (solve_block), partition_solve, "
          "refined_solve, gtsv_strided_batch")
    return 0


def _headline_checks(echo: bool = True) -> list[tuple[str, bool]]:
    """Fast headline checks; mirrors tests/integration in spirit."""
    import numpy as np

    from repro import paper
    from repro.analysis.autotune import sweep_switch_point
    from repro.analysis.timing import modeled_grid_timing
    from repro.numerics.generators import diagonally_dominant_fluid
    from repro.solvers.api import SOLVERS

    checks: list[tuple[str, bool]] = []

    def check(label, ok):
        if echo:
            print(f"  [{'ok' if ok else 'FAIL'}] {label}")
        checks.append((label, bool(ok)))

    if echo:
        print("headline reproduction checks (512x512):")
    t = {name: modeled_grid_timing(
            name, paper.N, paper.NUM_SYSTEMS,
            intermediate_size=paper.BEST_M.get(name)).solver_ms
         for name in paper.TOTAL_MS}
    check("solver ranking CR+PCR < CR+RD < PCR < RD < CR",
          sorted(t, key=t.get)
          == sorted(paper.TOTAL_MS, key=paper.TOTAL_MS.get))
    check("CR+PCR at least 10% faster than PCR",
          1 - t["cr_pcr"] / t["pcr"] > 0.10)
    check("CR+PCR at least 45% faster than CR",
          1 - t["cr_pcr"] / t["cr"] > 0.45)

    s = diagonally_dominant_fluid(2, paper.N, seed=0)
    best_pcr = sweep_switch_point(s, "pcr").best().intermediate_size
    best_rd = sweep_switch_point(s, "rd").best().intermediate_size
    check(f"hybrid switch points far above warp size "
          f"(got {best_pcr}/{best_rd})",
          best_pcr >= 128 and best_rd == paper.BEST_M["cr_rd"])

    batch = diagonally_dominant_fluid(8, paper.N, seed=1)
    x_cr = SOLVERS["cr"](batch, intermediate_size=None)
    x_rd = SOLVERS["rd"](batch, intermediate_size=None)
    check("CR accurate on dominant systems",
          bool(np.isfinite(x_cr).all())
          and batch.residual(x_cr).max() < 1e-3)
    check("RD overflows on dominant systems (the paper's Fig 18)",
          not bool(np.isfinite(x_rd).all()))
    return checks


def cmd_verify(args) -> int:
    """Headline checks, differential harness and invariant checker.

    With no selection flags this is the historical fast headline run
    (what CI and the Makefile call); ``--differential``,
    ``--invariants`` and ``--all`` add the oracle grid and the
    analytic-counter diff from :mod:`repro.verify`.
    """
    import json

    warnings.simplefilter("ignore")
    run_diff = args.differential or args.all
    run_inv = args.invariants or args.all
    run_headline = args.all or not (run_diff or run_inv or args.emit_golden)
    sizes = (tuple(int(s) for s in args.sizes.split(","))
             if args.sizes else None)

    if args.emit_golden:
        from repro.verify import golden_table
        table = golden_table(seed=2026 if args.seed is None else args.seed)
        with open(args.emit_golden, "w") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"golden residual table (seed {table['seed']}, "
              f"n={table['n']}) -> {args.emit_golden}")
        if not (run_headline or run_diff or run_inv):
            return 0

    rc = 0
    doc: dict = {}
    if run_headline:
        checks = _headline_checks(echo=not args.json)
        doc["headline"] = {label: ok for label, ok in checks}
        bad = sum(1 for _label, ok in checks if not ok)
        if bad:
            rc = 1
        if not args.json:
            print(f"\n{bad} check(s) failed" if bad
                  else "\nall headline checks passed")

    if run_diff or run_inv:
        from repro import telemetry
        from repro.telemetry.export import verify_summary
        from repro.verify import check_invariants, run_differential

        seed = 0 if args.seed is None else args.seed
        with telemetry.collect() as col:
            if run_diff:
                diff_kwargs = {"num_systems": args.systems, "seed": seed}
                if sizes:
                    diff_kwargs["sizes"] = sizes
                diff = run_differential(**diff_kwargs)
                doc["differential"] = diff.to_dict()
                if not diff.ok:
                    rc = 1
                if not args.json:
                    print()
                    print(diff.summary())
            if run_inv:
                inv_kwargs = {"seed": seed}
                if sizes:
                    inv_kwargs["sizes"] = sizes
                inv = check_invariants(**inv_kwargs)
                doc["invariants"] = inv.to_dict()
                if not inv.ok:
                    rc = 1
                if not args.json:
                    print()
                    print(inv.summary())
        snap = col.metrics.snapshot()
        doc["metrics"] = {
            "verify.cells": snap["counters"].get("verify.cells", {}),
        }
        if not args.json:
            lines = verify_summary(col)
            if lines:
                print()
                print("\n".join(lines))

    if args.json:
        doc["ok"] = rc == 0
        print(json.dumps(doc, indent=2, sort_keys=True))
    return rc


def cmd_fuzz(args) -> int:
    """Seeded differential fuzzing (or single-repro replay)."""
    import json

    from repro import telemetry
    from repro.telemetry.export import verify_summary
    from repro.verify import replay_repro, run_fuzz

    warnings.simplefilter("ignore")
    if args.replay:
        cell = replay_repro(args.replay)
        if args.json:
            print(json.dumps({"ok": cell.ok, "replay": cell.to_dict()},
                             indent=2, sort_keys=True))
        else:
            print(f"replay {args.replay}: {cell.status}"
                  + (f" -- {cell.message}" if cell.message else ""))
        return 0 if cell.ok else 1

    with telemetry.collect() as col:
        report = run_fuzz(seed=args.seed, iters=args.iters,
                          corpus_dir=args.corpus,
                          shrink=not args.no_shrink)
    rc = 0 if report.ok else 1
    snap = col.metrics.snapshot()
    if args.json:
        doc = report.to_dict()
        doc["metrics"] = {
            "fuzz.cases": snap["counters"].get("fuzz.cases", {}),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return rc
    print(report.summary())
    lines = verify_summary(col)
    if lines:
        print()
        print("\n".join(lines))
    return rc


def cmd_analyze(args) -> int:
    from repro.analysis.advisor import report as advisor_report
    from repro.analysis.trace import full_trace
    from repro.kernels.api import run_kernel
    from repro.numerics.generators import diagonally_dominant_fluid

    warnings.simplefilter("ignore")
    systems = diagonally_dominant_fluid(2, args.n, seed=0)
    _x, res = run_kernel(args.solver, systems,
                         intermediate_size=args.intermediate_size)
    if args.json:
        import json

        from repro.gpusim import (gt200_cost_model, launch_to_dict,
                                  timing_report_to_dict)
        rep = gt200_cost_model().report(res)
        print(json.dumps({
            "solver": args.solver,
            "n": args.n,
            "intermediate_size": args.intermediate_size,
            "launch": launch_to_dict(res),
            "timing": timing_report_to_dict(rep),
            "occupancy": res.occupancy(),
        }, indent=2, sort_keys=True))
        return 0
    print(full_trace(res))
    print()
    print(advisor_report(res))
    print()
    from repro.analysis.roofline import (device_roofs, place_kernel,
                                         roofline_table)
    point = place_kernel(args.solver, res)
    print(roofline_table([point], device_roofs(res.device)))
    return 0


def cmd_calibrate(_args) -> int:
    from repro.gpusim.calibrate import main as calibrate_main
    calibrate_main()
    return 0


def cmd_report(args) -> int:
    from repro.report import main as report_main
    return report_main(args.output, as_json=args.json)


def cmd_profile(args) -> int:
    from repro.telemetry.profile import run_profile

    art = run_profile(solver=args.solver, num_systems=args.systems,
                      n=args.size,
                      intermediate_size=args.intermediate_size,
                      outdir=args.outdir, quick=args.quick)
    print(art.summary_text)
    print(f"wrote {art.trace_path}")
    print(f"wrote {art.events_path}")
    print(f"wrote {art.summary_path}")
    print("\nOpen the .trace.json in https://ui.perfetto.dev "
          "(or chrome://tracing) to browse the modeled timeline.")
    return 0


def cmd_robust(args) -> int:
    import numpy as np

    from repro import telemetry
    from repro.gpusim.faults import FaultPlan, inject
    from repro.numerics.generators import (close_values,
                                           diagonally_dominant_fluid)
    from repro.resilience import SolveFailedError, robust_solve
    from repro.telemetry.export import resilience_summary

    warnings.simplefilter("ignore")
    if args.matrix == "dominant":
        s = diagonally_dominant_fluid(args.systems, args.size, seed=args.seed)
    elif args.matrix == "close":
        s = close_values(args.systems, args.size, seed=args.seed)
    else:  # mixed: half healthy, half off-dominant
        half = max(1, args.systems // 2)
        s1 = diagonally_dominant_fluid(half, args.size, seed=args.seed)
        s2 = close_values(max(1, args.systems - half), args.size,
                          seed=args.seed + 1)
        from repro.solvers.systems import TridiagonalSystems
        s = TridiagonalSystems(
            np.concatenate([s1.a, s2.a]), np.concatenate([s1.b, s2.b]),
            np.concatenate([s1.c, s2.c]), np.concatenate([s1.d, s2.d]))

    plan = None
    if args.inject is not None:
        plan = FaultPlan(seed=args.inject,
                         launch_transient_rate=args.launch_transient,
                         launch_fatal_rate=args.launch_fatal,
                         global_bitflip_rate=args.global_bitflip,
                         shared_bitflip_rate=args.shared_bitflip,
                         transfer_corruption_rate=args.transfer_corrupt,
                         ecc_detect_rate=args.ecc_detect)

    def run():
        try:
            return robust_solve(s.a, s.b, s.c, s.d, engine=args.engine,
                                residual_tol=args.tol, refine=args.refine,
                                raise_on_failure=False), 0
        except SolveFailedError as exc:   # pragma: no cover - defensive
            return exc.report, 1

    with telemetry.collect() as col:
        if plan is not None:
            with inject(plan):
                report, rc = run()
        else:
            report, rc = run()
    if not report.all_accepted:
        rc = 1
    snap = col.metrics.snapshot()
    if args.json:
        import json
        doc = report.to_dict()
        if plan is not None:
            doc["injected_faults"] = plan.counts()
        doc["metrics"] = {
            "fallback_total": snap["counters"].get("fallback_total", {}),
            "residual_max": snap["histograms"].get("residual_max", {}),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return rc
    print(report.summary())
    lines = resilience_summary(col)
    if lines:
        print()
        print("\n".join(lines))
    if rc:
        print(f"\n{len(report.failed_indices)} system(s) failed the "
              f"whole chain (exit 1)")
    return rc


def _device_outcome_table(reports) -> str:
    """Aggregate per-device chunk-attempt outcomes across job reports
    (the `repro serve --report` health table)."""
    agg: dict[str, dict[str, int]] = {}
    for r in reports:
        for dev, row in r.device_outcomes().items():
            dst = agg.setdefault(dev, dict.fromkeys(row, 0))
            for k, v in row.items():
                dst[k] += v
    lines = ["per-device chunk attempts:",
             f"  {'device':<8s} {'ok':>5s} {'faulted':>8s} "
             f"{'hedged':>7s} {'residual':>9s}"]
    for dev in sorted(agg):
        row = agg[dev]
        lines.append(f"  {dev:<8s} {row['ok']:>5d} {row['faulted']:>8d} "
                     f"{row['hedged']:>7d} {row['residual_missed']:>9d}")
    return "\n".join(lines)


def _live_line(snap: dict) -> str:
    """One periodic ``--live`` status line from a frontend snapshot."""
    parts = [f"[t={snap['now_ms']:9.3f}ms]",
             f"done {snap['completed']:4d}",
             f"shed {snap['shed']:4d}",
             f"pend {snap['pending']:3d}"]
    lat = []
    for cls, row in snap["by_class"].items():
        p50 = row["p50"]
        p99 = row["p99"]
        if p99 is not None:
            lat.append(f"{cls[:3]} p50 {p50:.3f} p99 {p99:.3f}")
    if lat:
        parts.append("| " + "  ".join(lat))
    sheds = {cls: row["shed"] for cls, row in snap["by_class"].items()
             if row["shed"]}
    if sheds:
        parts.append("| shed " + ",".join(f"{c}={n}"
                                          for c, n in sheds.items()))
    parts.append(f"| quota {sum(snap['quota_denied'].values())} "
                 f"breaker {snap['breaker_trips']} "
                 f"downgrade {snap['downgrades']}")
    return " ".join(parts)


def _health_policy(args):
    """The device-health policy the ``--failure-threshold`` and
    ``--cooldown-ms`` circuit flags build."""
    from repro.serve import HealthPolicy
    return HealthPolicy(failure_threshold=args.failure_threshold,
                        cooldown_ms=args.cooldown_ms)


def _serve_live(args) -> int:
    """`repro serve --live`: seeded open-loop overload run through the
    multi-tenant front end with periodic p50/p99 + shed/quota/breaker
    counters and the usual observability exports."""
    import dataclasses
    import json as _json

    from repro import telemetry
    from repro.gpusim.pool import make_pool
    from repro.serve import (BatchScheduler, FrontendConfig, ServeFrontend,
                             loadgen)
    from repro.telemetry.export import serve_summary

    warnings.simplefilter("ignore")
    profiles = loadgen.overload_profiles(
        args.load, scenario=args.scenario, tenants=args.tenants)
    if args.quota_rate is not None:
        profiles = [dataclasses.replace(
            p, spec=dataclasses.replace(p.spec, quota_rate=args.quota_rate,
                                        quota_burst=args.quota_burst))
            for p in profiles]
    requests = loadgen.generate(profiles, horizon_ms=args.duration_ms,
                                seed=args.seed)
    sink = None if args.json else (lambda snap: print(_live_line(snap)))
    with telemetry.collect(
            telemetry.deterministic_collector(args.seed)) as col:
        pool = make_pool(args.devices, seed=args.seed)
        sched = BatchScheduler(
            pool, max_chunk_retries=args.chunk_retries,
            checkpoint_dir=args.checkpoint,
            checkpoint_every=args.checkpoint_every, seed=args.seed,
            health_policy=_health_policy(args))
        fe = ServeFrontend(
            sched, [p.spec for p in profiles],
            config=FrontendConfig(pending_capacity=args.pending_capacity),
            resume=args.resume)
        if not args.json:
            print(f"serving {len(requests)} requests from "
                  f"{args.tenants} tenants over {args.duration_ms:g} "
                  f"modeled ms ({args.scenario} mix, {args.load:g}x load, "
                  f"seed {args.seed})")
        try:
            report = fe.run(requests, live_every_ms=args.report_every_ms,
                            live_sink=sink,
                            stop_after_jobs=args.stop_after)
        finally:
            fe.close()

    rc = 0 if report.completed else 1
    if args.export_dir:
        from repro.telemetry.export import write_exports
        paths = write_exports(col, args.export_dir)
        latency_path = os.path.join(args.export_dir, "serve.loadgen.json")
        with open(latency_path, "w") as fh:
            fh.write(_json.dumps(
                {"format": "repro.serve.loadgen/v1", "seed": args.seed,
                 "scenario": args.scenario, "load": args.load,
                 "duration_ms": args.duration_ms,
                 "requests": len(report.outcomes),
                 "completed": len(report.completed),
                 "shed": len(report.shed),
                 "shed_by_class": report.shed_by_class(),
                 "downgrades": report.downgrades,
                 "quota_denied": report.quota_denied,
                 "latency": report.latency_report()},
                indent=2, sort_keys=True) + "\n")
        for path in (*paths, latency_path):
            if not args.json:
                print(f"wrote {path}")

    if args.json:
        doc = report.to_dict()
        doc["seed"] = args.seed
        doc["scenario"] = args.scenario
        doc["load"] = args.load
        doc["duration_ms"] = args.duration_ms
        doc["exit_code"] = rc
        # Full per-job chunk detail makes the doc enormous; the live
        # report keeps outcomes shallow (reports stay available via
        # the python API).
        for o in doc["outcomes"]:
            if "report" in o and o["report"] is not None:
                o["report"] = {k: o["report"][k]
                               for k in ("outcome", "makespan_ms",
                                         "solution_digest")}
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return rc

    print()
    print(f"completed {len(report.completed)}/{len(report.outcomes)} "
          f"({len(report.shed)} shed: {report.shed_by_class()}; "
          f"{report.downgrades} downgraded)")
    lines = serve_summary(col)
    if lines:
        print()
        print("\n".join(lines))
    if args.report:
        print()
        print(fe.slo.report())
    return rc


def cmd_serve(args) -> int:
    """`repro serve`; a typed serving failure (e.g. a mismatched
    checkpoint on ``--resume``) is one ``error:`` line and exit 1."""
    from repro.serve import ServeError

    try:
        return _serve_live(args) if args.live else _serve_jobs(args)
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _serve_jobs(args) -> int:
    from repro import telemetry
    from repro.gpusim.faults import BrownoutProcess, FlappingProcess
    from repro.gpusim.pool import derive_seed, make_pool
    from repro.numerics.generators import diagonally_dominant_fluid
    from repro.serve import (BatchScheduler, FrontendConfig, ServeFrontend,
                             ServeRequest, TenantSpec)
    from repro.telemetry.export import serve_summary

    warnings.simplefilter("ignore")
    processes = []
    if args.hot_brownout is not None:
        processes.append(BrownoutProcess(
            start_ms=args.hot_brownout_start,
            duration_ms=args.hot_brownout_ms,
            multiplier=args.hot_brownout))
    if args.hot_flap is not None:
        processes.append(FlappingProcess(
            seed=derive_seed(args.seed, "flap"),
            period_ms=args.hot_flap_period,
            duty=args.hot_flap_duty,
            fault_rate=args.hot_flap))
    # With a staged incident the hot device defaults to *no* static
    # rates (the incident is the fault profile); without one it keeps
    # the classic always-fatal profile.
    hot_fatal = args.hot_fatal
    if hot_fatal is None:
        hot_fatal = 0.0 if processes else 1.0
    hot_rates = {"launch_fatal_rate": hot_fatal,
                 "launch_transient_rate": args.hot_transient,
                 "global_bitflip_rate": args.hot_bitflip,
                 "ecc_detect_rate": args.hot_ecc_detect}
    pool = make_pool(args.devices, seed=args.seed, hot=args.hot,
                     hot_rates=hot_rates,
                     hot_processes=tuple(processes),
                     spares=args.spares)
    sched = BatchScheduler(
        pool, health_policy=_health_policy(args),
        max_chunk_retries=args.chunk_retries,
        chunk_timeout_ms=args.chunk_timeout_ms,
        checkpoint_dir=args.checkpoint,
        checkpoint_every=args.checkpoint_every, seed=args.seed,
        hedge_ratio=args.hedge)
    # One unlimited tenant and one class: the front end admits, sheds
    # and orders the jobs exactly as it does for --live traffic.
    fe = ServeFrontend(
        sched, [TenantSpec("default")],
        config=FrontendConfig(pending_capacity=args.pending_capacity),
        resume=args.resume, stop_after=args.stop_after)

    # A deterministic collector (seeded span/event ids + tick clock)
    # makes the exported JSONL/trace/report bitwise-reproducible for a
    # given seed -- the property the chaos suite asserts.
    with telemetry.collect(
            telemetry.deterministic_collector(args.seed)) as col:
        # Offered in submission order and drained with dispatch_once
        # (run() would sort job10 before job2).
        try:
            for i in range(args.jobs):
                s = diagonally_dominant_fluid(args.systems, args.size,
                                              seed=args.seed + i)
                fe.offer(ServeRequest(f"job{i}", "default", s,
                                      method=args.solver,
                                      chunk_size=args.chunk_size,
                                      slo_class=args.slo_class,
                                      deadline_ms=args.deadline_ms))
            while fe.dispatch_once() is not None:
                pass
        finally:
            fe.close()
    served = fe.report()
    reports = [o.report for o in served.completed]
    shed = [{"job_id": o.request_id, "reason": o.reason,
             "slo_class": o.slo_class,
             "message": f"shed at the {o.stage} stage"}
            for o in served.shed]
    rejected = [f"{s['job_id']}: [{s['reason']}] {s['message']}"
                for s in shed]

    rc = 0 if reports and all(r.ok for r in reports) else 1
    if args.stop_after is not None:
        # A demo kill is an intentional partial run, not a failure.
        rc = 0 if all(r.outcome in ("ok", "stopped") for r in reports) else 1
    if rejected:
        # Shed jobs are lost work: nonzero exit, matching `repro
        # robust`'s "any unhealthy outcome fails the invocation".
        rc = 1

    if args.export_dir:
        import json as _json

        from repro.telemetry.export import write_exports
        paths = write_exports(col, args.export_dir)
        health_path = os.path.join(args.export_dir, "serve.health.jsonl")
        with open(health_path, "w") as fh:
            for t in sched.health.transitions:
                fh.write(_json.dumps(t, sort_keys=True) + "\n")
        for path in (*paths, health_path):
            if not args.json:
                print(f"wrote {path}")

    if args.json:
        import json
        snap = col.metrics.snapshot()
        doc = {"format": "repro.serve/v3",
               "seed": args.seed,
               "jobs": [r.to_dict() for r in reports],
               "rejected": rejected,
               "shed": shed,
               "slo": served.slo_snapshot,
               "health": sched.health.snapshot(),
               "metrics": {k: v for k, v in snap["counters"].items()
                           if k.startswith("serve.")},
               "exit_code": rc}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return rc
    for r in reports:
        print(r.summary())
    for line in rejected:
        print(f"rejected {line}")
    lines = serve_summary(col)
    if lines:
        print()
        print("\n".join(lines))
    if args.report:
        print()
        print(fe.slo.report())
        print()
        print(sched.health.report())
        print()
        print(_device_outcome_table(reports))
    if args.checkpoint:
        print(f"\ncheckpoint journal in {args.checkpoint}/ "
              f"(resume with: repro serve --resume ...)")
    if rc:
        bad = [r.job_id for r in reports if not r.ok]
        print(f"\n{len(bad)} job(s) unhealthy: {bad} (exit 1)")
    return rc


def cmd_top(args) -> int:
    """Render a deterministic `top`-style snapshot from an exported
    telemetry JSONL log (the final metrics line of `repro serve
    --export-dir` / `repro profile` output)."""
    import json

    snap = None
    try:
        with open(args.events) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                if doc.get("type") == "metrics":
                    snap = doc["snapshot"]
    except OSError as exc:
        print(f"cannot read {args.events}: {exc}")
        return 1
    if snap is None:
        print(f"no metrics snapshot in {args.events}")
        return 1

    print(f"== repro top ({args.events}) ==")
    hists = snap.get("histograms", {})
    latency = hists.get("serve.latency_ms")
    if latency:
        print("serve latency (modeled ms):")
        for labels, s in sorted(latency.items()):
            print(f"  {labels}: count {s['count']}, p50 {s['p50']:.3f}, "
                  f"p95 {s['p95']:.3f}, p99 {s['p99']:.3f}")
    for name in ("serve.queue_wait_ms", "serve.deadline_slack_ms",
                 "serve.retry_delay_ms", "estimator.cost_residual"):
        series = hists.get(name)
        if not series:
            continue
        print(f"{name}:")
        for labels, s in sorted(series.items()):
            print(f"  {labels}: count {s['count']}, p50 {s['p50']:.3f}, "
                  f"p95 {s['p95']:.3f}")
    counters = {k: v for k, v in snap.get("counters", {}).items()
                if k.startswith("serve.")}
    if counters:
        print("serve counters:")
        for name, series in sorted(counters.items()):
            for labels, value in sorted(series.items()):
                label = "" if labels == "_" else labels
                print(f"  {name}{label} = {value:g}")
    gauges = {k: v for k, v in snap.get("gauges", {}).items()
              if k.startswith("serve.")}
    if gauges:
        print("serve gauges:")
        for name, series in sorted(gauges.items()):
            for labels, value in sorted(series.items()):
                label = "" if labels == "_" else labels
                print(f"  {name}{label} = {value:g}")
    return 0


def cmd_experiments(_args) -> int:
    from repro.experiments import summary
    print(summary())
    return 0


def main(argv=None) -> int:
    from repro.solvers.api import POWER_OF_TWO_METHODS, SOLVERS
    paper_solvers = [m for m in SOLVERS if m in POWER_OF_TWO_METHODS]
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast Tridiagonal Solvers on the GPU -- reproduction")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="package and device summary")
    p_ver = sub.add_parser(
        "verify",
        help="verification: headline checks, differential oracle grid, "
             "architectural invariants")
    p_ver.add_argument("--all", action="store_true",
                       help="headline + differential + invariants")
    p_ver.add_argument("--differential", action="store_true",
                       help="run every solver x layout x matrix class "
                            "against the float64 pivoting oracle")
    p_ver.add_argument("--invariants", action="store_true",
                       help="diff analytic step/bank-conflict/transaction "
                            "counts against recorded traces")
    p_ver.add_argument("--sizes", default=None, metavar="N,N,...",
                       help="comma-separated system sizes (powers of two)")
    p_ver.add_argument("--systems", type=int, default=4,
                       help="systems per differential cell")
    p_ver.add_argument("--seed", type=int, default=None,
                       help="generator seed (default 0; golden table 2026)")
    p_ver.add_argument("--emit-golden", default=None, metavar="PATH",
                       dest="emit_golden",
                       help="write the golden residual table (what "
                            "tests/data/sec54_residuals.json locks) and "
                            "exit")
    p_ver.add_argument("--json", action="store_true",
                       help="machine-readable report + metrics")
    p_fz = sub.add_parser(
        "fuzz",
        help="seeded differential fuzzing with corpus replay and "
             "automatic shrinking")
    p_fz.add_argument("--seed", type=int, default=0,
                      help="root seed for case drawing")
    p_fz.add_argument("--iters", type=int, default=100,
                      help="fresh fuzz iterations after corpus replay")
    p_fz.add_argument("--corpus", default=None, metavar="DIR",
                      help="replay *.json repro files here first; new "
                           "failures are minimized and written back")
    p_fz.add_argument("--replay", default=None, metavar="PATH",
                      help="re-run one repro file and exit")
    p_fz.add_argument("--no-shrink", action="store_true", dest="no_shrink",
                      help="report failures without minimizing them")
    p_fz.add_argument("--json", action="store_true",
                      help="machine-readable report + metrics")
    p_an = sub.add_parser("analyze",
                          help="trace + advisor for one solver kernel")
    p_an.add_argument("solver", choices=paper_solvers)
    p_an.add_argument("--n", type=int, default=512,
                      help="system size (power of two)")
    p_an.add_argument("--intermediate-size", type=int, default=None,
                      dest="intermediate_size")
    p_an.add_argument("--json", action="store_true",
                      help="machine-readable trace + timing JSON")
    sub.add_parser("calibrate", help="re-fit the GT200 cost model")
    p_rep = sub.add_parser("report",
                           help="generate a Markdown reproduction report")
    p_rep.add_argument("-o", "--output", default=None,
                       help="write to a file instead of stdout")
    p_rep.add_argument("--json", action="store_true",
                       help="emit the report as machine-readable JSON")
    p_prof = sub.add_parser(
        "profile",
        help="profile a solver workload; export Chrome trace + JSONL "
             "+ summary")
    p_prof.add_argument("--solver", default="cr_pcr",
                        choices=paper_solvers)
    p_prof.add_argument("--systems", type=int, default=512,
                        help="number of tridiagonal systems in the batch")
    p_prof.add_argument("--size", type=int, default=512,
                        help="system size n (power of two)")
    p_prof.add_argument("--intermediate-size", type=int, default=None,
                        dest="intermediate_size")
    p_prof.add_argument("--outdir", default="profiles",
                        help="directory for the three artifacts")
    p_prof.add_argument("--quick", action="store_true",
                        help="seconds-scale smoke workload (32x64)")
    p_rob = sub.add_parser(
        "robust",
        help="guarded solve with fallback chain, optionally under "
             "seeded fault injection")
    p_rob.add_argument("--systems", type=int, default=32)
    p_rob.add_argument("--size", type=int, default=128,
                       help="system size n")
    p_rob.add_argument("--matrix", default="mixed",
                       choices=["dominant", "close", "mixed"],
                       help="matrix class (close/mixed exercise the "
                            "pivoting fallback)")
    p_rob.add_argument("--seed", type=int, default=0,
                       help="matrix generator seed")
    p_rob.add_argument("--engine", default="sim",
                       choices=["numpy", "sim"],
                       help="sim runs the instrumented kernels (the "
                            "fault-injectable path)")
    p_rob.add_argument("--tol", type=float, default=1e-4,
                       help="relative-residual acceptance gate")
    p_rob.add_argument("--refine", action="store_true",
                       help="mixed-precision retry before escalating")
    p_rob.add_argument("--inject", type=int, default=None, metavar="SEED",
                       help="activate a FaultPlan with this seed")
    p_rob.add_argument("--launch-transient", type=float, default=0.2)
    p_rob.add_argument("--launch-fatal", type=float, default=0.0)
    p_rob.add_argument("--global-bitflip", type=float, default=0.2)
    p_rob.add_argument("--shared-bitflip", type=float, default=0.02)
    p_rob.add_argument("--transfer-corrupt", type=float, default=0.1)
    p_rob.add_argument("--ecc-detect", type=float, default=0.5)
    p_rob.add_argument("--json", action="store_true",
                       help="machine-readable SolveReport")
    p_srv = sub.add_parser(
        "serve",
        help="batch-solve scheduler demo over a simulated device pool "
             "(deadlines, circuit breakers, checkpoint/resume)")
    p_srv.add_argument("--jobs", type=int, default=1,
                       help="synthetic jobs to submit")
    p_srv.add_argument("--systems", type=int, default=32,
                       help="systems per job")
    p_srv.add_argument("--size", type=int, default=64,
                       help="system size n (power of two)")
    p_srv.add_argument("--solver", default="cr_pcr",
                       choices=paper_solvers)
    p_srv.add_argument("--chunk-size", type=int, default=None,
                       dest="chunk_size",
                       help="cap on systems per chunk (default: one "
                            "occupancy wave of the job's launch plan)")
    p_srv.add_argument("--devices", type=int, default=3,
                       help="simulated GPUs in the pool")
    p_srv.add_argument("--hot", type=int, default=None, metavar="INDEX",
                       help="pool index of a faulty device")
    p_srv.add_argument("--hot-fatal", type=float, default=None,
                       help="static launch-fatal rate of the hot device "
                            "(default 1.0, or 0.0 when a staged incident "
                            "is given)")
    p_srv.add_argument("--hot-transient", type=float, default=0.0)
    p_srv.add_argument("--hot-bitflip", type=float, default=0.0)
    p_srv.add_argument("--hot-ecc-detect", type=float, default=1.0)
    p_srv.add_argument("--hot-brownout", type=float, default=None,
                       metavar="MULT", dest="hot_brownout",
                       help="stage a brownout on the hot device: latency "
                            "multiplier over a modeled window")
    p_srv.add_argument("--hot-brownout-start", type=float, default=0.0,
                       dest="hot_brownout_start", metavar="MS")
    p_srv.add_argument("--hot-brownout-ms", type=float,
                       default=float("inf"), dest="hot_brownout_ms",
                       metavar="MS", help="brownout window length "
                                          "(default: open-ended)")
    p_srv.add_argument("--hot-flap", type=float, default=None,
                       metavar="RATE", dest="hot_flap",
                       help="stage flapping on the hot device: seeded "
                            "on/off fault bursts at this launch-fatal "
                            "rate while down")
    p_srv.add_argument("--hot-flap-period", type=float, default=2.0,
                       dest="hot_flap_period", metavar="MS")
    p_srv.add_argument("--hot-flap-duty", type=float, default=0.5,
                       dest="hot_flap_duty",
                       help="fraction of flap windows spent down")
    p_srv.add_argument("--spares", type=int, default=0,
                       help="warm spare devices kept out of placement "
                            "until the health monitor promotes one")
    p_srv.add_argument("--hedge", type=float, default=None, metavar="RATIO",
                       help="hedge chunks whose realized/modeled cost "
                            "ratio crosses RATIO on the next-best "
                            "healthy device (first result wins)")
    p_srv.add_argument("--seed", type=int, default=0,
                       help="workload + device entropy root")
    p_srv.add_argument("--deadline-ms", type=float, default=None,
                       dest="deadline_ms",
                       help="per-job modeled deadline budget")
    p_srv.add_argument("--chunk-timeout-ms", type=float, default=None,
                       dest="chunk_timeout_ms")
    p_srv.add_argument("--failure-threshold", type=int, default=3,
                       dest="failure_threshold",
                       help="consecutive failures that trip a breaker")
    p_srv.add_argument("--cooldown-ms", type=float, default=5.0,
                       dest="cooldown_ms")
    p_srv.add_argument("--chunk-retries", type=int, default=3,
                       dest="chunk_retries")
    p_srv.add_argument("--checkpoint", default=None, metavar="DIR",
                       help="append the session's checkpoint journal "
                            "(DIR/journal.jsonl) here")
    p_srv.add_argument("--checkpoint-every", type=int, default=4,
                       dest="checkpoint_every")
    p_srv.add_argument("--resume", action="store_true",
                       help="resume from the journal in --checkpoint")
    p_srv.add_argument("--stop-after", type=int, default=None,
                       dest="stop_after", metavar="N",
                       help="kill each job after N chunks (demo; pair "
                            "with --checkpoint then --resume)")
    p_srv.add_argument("--json", action="store_true",
                       help="machine-readable job reports + SLO snapshot "
                            "+ metrics (schema: docs/observability.md)")
    p_srv.add_argument("--slo-class", default="standard", dest="slo_class",
                       choices=["interactive", "standard", "batch"],
                       help="SLO class submitted jobs are accounted under")
    p_srv.add_argument("--report", action="store_true",
                       help="print the per-class SLO report "
                            "(p50/p95/p99, burn rate, attribution)")
    p_srv.add_argument("--export-dir", default=None, dest="export_dir",
                       metavar="DIR",
                       help="write Chrome trace, JSONL event log, text "
                            "summary and Prometheus exposition here")
    p_srv.add_argument("--live", action="store_true",
                       help="run the multi-tenant front end against a "
                            "seeded open-loop load-generator stream "
                            "(periodic p50/p99 + shed/quota/breaker "
                            "counters; see docs/robustness.md)")
    p_srv.add_argument("--duration-ms", type=float, default=4.0,
                       dest="duration_ms", metavar="MS",
                       help="[--live] modeled arrival horizon")
    p_srv.add_argument("--load", type=float, default=2.0,
                       help="[--live] offered load as a multiple of "
                            "modeled pool capacity (2.0 = sustained "
                            "overload)")
    p_srv.add_argument("--scenario", default="mixed",
                       choices=["mixed", "adi3d", "ocean"],
                       help="[--live] per-tenant request-size mix")
    p_srv.add_argument("--tenants", type=int, default=3,
                       help="[--live] number of named tenants")
    p_srv.add_argument("--report-every-ms", type=float, default=1.0,
                       dest="report_every_ms", metavar="MS",
                       help="[--live] modeled interval between status "
                            "lines")
    p_srv.add_argument("--pending-capacity", type=int, default=24,
                       dest="pending_capacity",
                       help="front-end bound on admitted, unfinished "
                            "requests (overflow sheds strictly by "
                            "class)")
    p_srv.add_argument("--quota-rate", type=float, default=None,
                       dest="quota_rate", metavar="RATE",
                       help="[--live] per-tenant token refill rate in "
                            "modeled ms of work per modeled ms "
                            "(default: unlimited)")
    p_srv.add_argument("--quota-burst", type=float, default=0.5,
                       dest="quota_burst", metavar="TOKENS",
                       help="[--live] per-tenant token-bucket burst size")
    p_top = sub.add_parser(
        "top",
        help="deterministic top-style snapshot from an exported "
             "telemetry JSONL log")
    p_top.add_argument("events", metavar="EVENTS_JSONL",
                       help="JSONL log from `repro serve --export-dir` "
                            "or `repro profile`")
    sub.add_parser("experiments",
                   help="list reproduced artifacts and their benches")

    args = parser.parse_args(argv)
    handler = {"info": cmd_info, "verify": cmd_verify, "fuzz": cmd_fuzz,
               "analyze": cmd_analyze, "calibrate": cmd_calibrate,
               "report": cmd_report, "profile": cmd_profile,
               "robust": cmd_robust, "serve": cmd_serve,
               "top": cmd_top, "experiments": cmd_experiments}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
