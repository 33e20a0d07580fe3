"""The guarded solve: validate, route, gate on residuals, escalate.

The paper's §5.4 accuracy study draws a hard map of where each fast
solver is trustworthy: CR/PCR need diagonal dominance, RD additionally
overflows in float32 past n = 64, and only pivoting GE (GEP) survives
general matrices.  :func:`robust_solve` turns that map into a runtime
contract:

1. **validate** -- reject NaN/Inf inputs at the boundary
   (:func:`repro.solvers.validate.validate_finite`);
2. **route** -- consult the :mod:`repro.numerics.stability` predicates
   *per system*: systems the fast no-pivoting solvers cannot be
   trusted on skip straight to the pivoting entries of the chain;
3. **solve + gate** -- run the cheapest applicable solver on the
   sub-batch, then accept each system only if its float64 relative
   residual clears ``residual_tol``;
4. **escalate** -- rejected systems (bad residual, overflow, an
   injected :class:`~repro.gpusim.faults.KernelLaunchError` or
   :class:`~repro.gpusim.faults.DataCorruptionError` from the
   simulated device) walk down the fallback chain, optionally taking
   one mixed-precision :func:`~repro.solvers.refine.refined_solve`
   retry before leaving a method;
5. **report** -- the typed :class:`~repro.resilience.report.SolveReport`
   records the route, residual and retry count of every system; if the
   chain is exhausted the pipeline raises
   :class:`~repro.resilience.errors.SolveFailedError` rather than
   return unvouched-for numbers.

Every escalation emits the ``fallback_total{from,to,reason}`` counter
and each attempt observes the ``residual_max`` histogram, so chaos
runs are visible in ``repro profile`` summaries.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.gpusim import faults as _faults
from repro.numerics import stability
from repro.solvers.api import (PIVOTING_METHODS, POWER_OF_TWO_METHODS,
                               SOLVERS)
from repro.solvers.refine import refined_solve
from repro.solvers.systems import TridiagonalSystems
from repro.solvers.validate import is_power_of_two, pad_to_power_of_two, \
    validate_finite
from repro.telemetry.metrics import FALLBACK_TOTAL, RESIDUAL_MAX, emit

from .errors import SolveFailedError
from .report import AttemptRecord, SolveReport, SystemReport

#: The default escalation ladder: the paper's fastest hybrid, then
#: plain PCR (fewer reduction steps to go wrong), then the sequential
#: CPU baseline, then Gaussian elimination with partial pivoting --
#: the §5.4 accuracy anchor that handles general matrices.
DEFAULT_CHAIN: tuple[str, ...] = ("cr_pcr", "pcr", "thomas", "gep")

#: Methods that divide by diagonal entries without row exchanges; the
#: stability pre-routing skips them for systems they cannot be trusted
#: on.
_NO_PIVOT = frozenset({"cr", "pcr", "rd", "cr_pcr", "cr_rd", "thomas",
                       "twoway"})

#: Methods built on the RD scan (affected by float32 chain overflow).
_RD_FAMILY = frozenset({"rd", "cr_rd"})


def _relative_residuals(sub: TridiagonalSystems, x: np.ndarray) -> np.ndarray:
    """Per-system relative residual, ``inf`` for non-finite rows."""
    dn = np.linalg.norm(sub.d.astype(np.float64), axis=1)
    dn = np.where(dn == 0, 1.0, dn)
    with np.errstate(all="ignore"):
        rel = sub.residual(x) / dn
    rel = np.where(np.isfinite(rel), rel, np.inf)
    return np.where(np.isfinite(x).all(axis=1), rel, np.inf)


def _run_method(method: str, sub: TridiagonalSystems, engine: str,
                intermediate_size, device) -> np.ndarray:
    """One solver attempt; sim engine goes through the instrumented
    kernels (and therefore through the fault-injection hooks)."""
    if engine == "sim":
        from repro.kernels.api import run_kernel
        # The chain's "thomas" stays the NumPy fallback it always was
        # (the fine-grained GPU methods are the sim attempts here).
        if method in POWER_OF_TWO_METHODS:
            m = intermediate_size if method in ("cr_pcr", "cr_rd") else None
            x, _result = run_kernel(method, sub, intermediate_size=m)
            return x
    with np.errstate(all="ignore"):
        return SOLVERS[method](sub, intermediate_size=intermediate_size)


def _allowed(method: str, stable: bool, rd_risky: bool) -> bool:
    """May ``method`` be tried on a system with these stability flags?"""
    if method in _NO_PIVOT and not stable:
        return False
    if method in _RD_FAMILY and rd_risky:
        return False
    return True


def _first_allowed(chain, start: int, stable: bool, rd_risky: bool) -> int:
    """First chain position >= start this system may run; len(chain)
    when nothing is left (exhausted)."""
    for pos in range(start, len(chain)):
        if _allowed(chain[pos], stable, rd_risky):
            return pos
    return len(chain)


def robust_solve(a, b, c, d, *, chain: tuple[str, ...] | None = None,
                 residual_tol: float = 1e-4, check_finite: bool = True,
                 engine: str = "numpy", refine: bool = False,
                 intermediate_size: int | None = None,
                 method_retries: int = 1,
                 raise_on_failure: bool = True, pad: bool = True,
                 device=None) -> SolveReport:
    """Fault-tolerant batched tridiagonal solve.

    Parameters
    ----------
    a, b, c, d:
        As :func:`repro.solvers.api.solve` (1-D or ``(S, n)``).
    chain:
        Fallback ladder; method names from
        :data:`repro.solvers.api.SOLVERS`, tried in order.  Defaults
        to :data:`DEFAULT_CHAIN`.
    residual_tol:
        Acceptance gate: per-system float64 relative residual
        ``||A x - d||_2 / ||d||_2``.  The float32 fast solvers land
        near 1e-7 on healthy dominant batches, so the default 1e-4
        passes clean solves with margin and rejects corruption.
    check_finite:
        Validate inputs at the boundary (raises
        :class:`~repro.solvers.validate.InputValidationError`).
    engine:
        ``"numpy"`` runs the vectorised solver library; ``"sim"`` runs
        chain entries that have instrumented kernels through the
        simulated GPU -- the path fault injection applies to.
    refine:
        Before escalating past a method on a residual failure, retry
        the rejected systems once with mixed-precision
        :func:`~repro.solvers.refine.refined_solve` on that method.
    method_retries:
        Same-method retries after a typed device fault
        (:class:`~repro.gpusim.faults.KernelLaunchError` /
        :class:`~repro.gpusim.faults.DataCorruptionError`) before a
        fallback hop is spent -- detected faults are transient, the
        matrix is not the problem.
    raise_on_failure:
        Raise :class:`~repro.resilience.errors.SolveFailedError` when
        any system exhausts the chain (default).  ``False`` returns
        the report with those systems marked ``accepted=False``.
    pad:
        Pad non-power-of-two sizes for the GPU-path chain entries.

    Returns
    -------
    :class:`~repro.resilience.report.SolveReport` -- solution plus
    per-system route, residual and retries.
    """
    single = np.asarray(b).ndim == 1
    systems = TridiagonalSystems(np.atleast_2d(a), np.atleast_2d(b),
                                 np.atleast_2d(c), np.atleast_2d(d))
    if check_finite:
        validate_finite(systems, who="robust_solve")
    chain = tuple(chain if chain is not None else DEFAULT_CHAIN)
    if not chain:
        raise ValueError("fallback chain must not be empty")
    unknown = [m for m in chain if m not in SOLVERS]
    if unknown:
        raise ValueError(f"unknown chain methods {unknown}; "
                         f"available: {sorted(SOLVERS)}")

    orig_n = systems.n
    if (not is_power_of_two(orig_n)
            and any(m in POWER_OF_TWO_METHODS for m in chain)):
        if not pad:
            raise ValueError(
                f"chain {chain} contains power-of-two methods and "
                f"pad=False; got n={orig_n}")
        systems, orig_n = pad_to_power_of_two(systems)

    S = systems.num_systems
    plan = _faults.active_plan()
    faults_before = plan.fault_count if plan is not None else 0

    # -- stability pre-routing (the §5.4 map, per system) --------------
    stable = np.asarray(stability.cr_stable_without_pivoting(systems))
    stable &= np.all(systems.b != 0, axis=1)     # zero pivot kills all
    rd_risky = np.asarray(stability.rd_overflow_risk(systems))

    reports = [SystemReport(index=i) for i in range(S)]
    x_out = np.full(systems.shape, np.nan, dtype=np.float64)
    attempts: list[AttemptRecord] = []
    groups: dict[int, list[int]] = {}
    for i in range(S):
        pos = _first_allowed(chain, 0, bool(stable[i]), bool(rd_risky[i]))
        if 0 < pos < len(chain):
            reports[i].reason = "unstable"
            emit(FALLBACK_TOTAL, **{"from": "(entry)", "to": chain[pos],
                                    "reason": "unstable"})
        groups.setdefault(pos, []).append(i)

    def escalate(i: int, pos: int, reason: str) -> None:
        reports[i].reason = reason
        nxt = _first_allowed(chain, pos + 1, bool(stable[i]),
                             bool(rd_risky[i]))
        emit(FALLBACK_TOTAL, **{
            "from": chain[pos],
            "to": chain[nxt] if nxt < len(chain) else "(none)",
            "reason": reason})
        groups.setdefault(nxt, []).append(i)

    with telemetry.span("robust_solve", num_systems=S, n=systems.n,
                        engine=engine, chain="->".join(chain)):
        for pos, method in enumerate(chain):
            idx = groups.pop(pos, None)
            if not idx:
                continue
            idx = np.asarray(sorted(idx), dtype=np.int64)
            sub = systems.take(idx)
            for i in idx:
                reports[i].route.append(method)
            record = AttemptRecord(method=method, engine=engine,
                                   num_systems=int(idx.size), accepted=0,
                                   max_residual=0.0)
            attempts.append(record)
            # Detected device faults are transient: retry the same
            # method ``method_retries`` times before spending a
            # fallback hop on them.
            x_sub = None
            for try_i in range(1 + max(0, method_retries)):
                try:
                    x_sub = _run_method(method, sub, engine,
                                        intermediate_size, device)
                    break
                except (_faults.DataCorruptionError,
                        _faults.KernelLaunchError) as exc:
                    record.error = type(exc).__name__
                    reason = ("corruption"
                              if isinstance(exc, _faults.DataCorruptionError)
                              else "launch_error")
                    telemetry.event("robust.attempt_error", method=method,
                                    error=record.error)
                    for i in idx:
                        reports[i].retries += 1
                    if try_i == method_retries:
                        for i in idx:
                            escalate(int(i), pos, reason)
            if x_sub is None:
                continue

            rel = _relative_residuals(sub, x_sub)
            record.max_residual = float(np.max(rel[np.isfinite(rel)],
                                               initial=0.0))
            if rel.size:
                emit(RESIDUAL_MAX, record.max_residual, method=method)

            accept = rel <= residual_tol
            # Mixed-precision retry before leaving this method: only
            # worth it where the inner solver is stable (refinement
            # amplifies instability, not accuracy).
            if refine and not accept.all():
                retry_local = np.flatnonzero(~accept)
                retry_sub = sub.take(retry_local)
                res = refined_solve(retry_sub, method=method,
                                    intermediate_size=intermediate_size)
                rel_retry = _relative_residuals(retry_sub, res.x)
                fixed = rel_retry <= residual_tol
                for k, j in enumerate(retry_local):
                    reports[int(idx[j])].retries += 1
                    if fixed[k]:
                        x_sub[j] = res.x[k]
                        rel[j] = rel_retry[k]
                        accept[j] = True
                record.refine_retries = int(retry_local.size)

            record.accepted = int(accept.sum())
            # Best-effort numbers land in x_out even when rejected, so
            # a raise_on_failure=False caller still sees the closest
            # solution the chain produced (flagged, never silent).
            finite_rows = np.isfinite(x_sub).all(axis=1)
            x_out[idx[finite_rows]] = x_sub[finite_rows]
            for j, i in enumerate(idx):
                r = reports[int(i)]
                r.residual = float(rel[j])
                if accept[j]:
                    r.accepted = True
                    r.method = method
                    r.reason = "ok"
                else:
                    escalate(int(i), pos,
                             "nonfinite" if not np.isfinite(rel[j])
                             else "residual")

        exhausted = groups.pop(len(chain), [])
        for i in exhausted:
            reports[i].accepted = False
            reports[i].reason = "exhausted"

    x_final = x_out[:, :orig_n]
    report = SolveReport(
        x=x_final[0] if single else x_final,
        systems=reports, attempts=attempts, chain=chain,
        residual_tol=residual_tol,
        fault_events=(plan.fault_count - faults_before
                      if plan is not None else 0))
    if telemetry.enabled():
        telemetry.event("robust.done",
                        accepted=sum(s.accepted for s in reports),
                        failed=len(report.failed_indices),
                        fallbacks=report.num_fallbacks)
    if raise_on_failure and not report.all_accepted:
        raise SolveFailedError(
            f"{len(report.failed_indices)} system(s) failed every method "
            f"in chain {chain}: indices {report.failed_indices[:8]}"
            f"{'...' if len(report.failed_indices) > 8 else ''}",
            report=report)
    return report
