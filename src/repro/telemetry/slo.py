"""Per-class service-level objectives for the serve layer.

The multi-tenant front end sheds load by SLO class, from
``p50/p99 + breaker/shed counters``.  This module is that accounting:
jobs are tagged with an :class:`SLOClass` (latency
objective on the modeled clock), and an :class:`SLORegistry` folds each
finished/shed job into streaming histograms and attribution counters.

The registry owns its own histogram series
(:class:`~repro.telemetry.metrics.HistogramSeries`), so it works with
or without an active telemetry collector.  When one *is* active, the
registry mirrors three of its observations into collector metrics
itself, so they appear in exports and snapshots:
queue wait (``serve.queue_wait_ms``), sheds (``serve.shed_total``) and
deadline slack (``serve.deadline_slack_ms``).  The class latency here
runs from arrival to finish (from start, for a job submitted without an
arrival time), the span of the front end's ``serve.request_latency_ms``;
the scheduler's ``serve.latency_ms`` is a different quantity, the job's
makespan (start to finish), and is emitted separately.

Burn rate follows the usual SRE definition: the fraction of requests
that violated the objective divided by the budgeted violation fraction
``1 - objective``.  A burn rate of 1.0 means the error budget is being
consumed exactly at the sustainable pace; above 1.0 the class is
burning budget faster than it can afford.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import (DEADLINE_SLACK, QUEUE_WAIT, SHED_TOTAL,
                      HistogramSeries, emit)


@dataclass(frozen=True)
class SLOClass:
    """One latency class: p99 objective in modeled milliseconds."""

    name: str
    latency_p99_ms: float
    #: Target fraction of jobs meeting the latency bound (and not shed).
    objective: float = 0.99

    def budget_fraction(self) -> float:
        return max(1e-9, 1.0 - self.objective)


#: Default classes, loosely tiered like interactive/standard/batch
#: request pools in a multi-tenant solver service.
DEFAULT_CLASSES = (
    SLOClass("interactive", latency_p99_ms=5.0),
    SLOClass("standard", latency_p99_ms=50.0),
    SLOClass("batch", latency_p99_ms=500.0),
)

DEFAULT_CLASS = "standard"


@dataclass
class _ClassState:
    slo: SLOClass
    latency: HistogramSeries = field(default_factory=HistogramSeries)
    queue_wait: HistogramSeries = field(default_factory=HistogramSeries)
    deadline_slack: HistogramSeries = field(default_factory=HistogramSeries)
    total: int = 0
    good: int = 0
    violations: int = 0
    shed: int = 0
    shed_reasons: dict[str, int] = field(default_factory=dict)
    breaker_trips: dict[str, int] = field(default_factory=dict)
    deadline_misses: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)
    #: Per-tenant burn attribution: tenant -> {jobs, good, violations,
    #: shed}, populated from the ``tenant=`` callers pass.
    tenants: dict[str, dict[str, int]] = field(default_factory=dict)

    def burn_rate(self) -> float:
        """Error-budget burn rate; 0.0 before any traffic."""
        seen = self.total + self.shed
        if seen == 0:
            return 0.0
        bad = self.violations + self.shed
        return (bad / seen) / self.slo.budget_fraction()

    def tenant_row(self, tenant: str) -> dict[str, int]:
        return self.tenants.setdefault(
            tenant, {"jobs": 0, "good": 0, "violations": 0, "shed": 0})


class SLORegistry:
    """Folds serve outcomes into per-class SLO accounting.

    Unknown class names auto-register with the loosest default
    objective rather than raising: a misconfigured client should show
    up in the report, not crash the scheduler.
    """

    def __init__(self, classes=DEFAULT_CLASSES):
        self._classes: dict[str, _ClassState] = {
            c.name: _ClassState(c) for c in classes}

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def class_names(self) -> list[str]:
        return sorted(self._classes)

    def slo_for(self, name: str) -> SLOClass:
        return self._state(name).slo

    def _state(self, name: str) -> _ClassState:
        st = self._classes.get(name)
        if st is None:
            st = _ClassState(SLOClass(name, latency_p99_ms=500.0))
            self._classes[name] = st
        return st

    # -- recording -----------------------------------------------------

    def record_job(self, cls: str, latency_ms: float, outcome: str,
                   deadline_slack_ms: float | None = None,
                   tenant: str | None = None) -> None:
        """One finished job: ``outcome`` is the JobReport outcome
        (``ok``/``deadline``/``stopped``/``failed``)."""
        st = self._state(cls)
        st.total += 1
        st.latency.observe(latency_ms)
        st.outcomes[outcome] = st.outcomes.get(outcome, 0) + 1
        ok = outcome == "ok" and latency_ms <= st.slo.latency_p99_ms
        if ok:
            st.good += 1
        else:
            st.violations += 1
        if outcome == "deadline":
            st.deadline_misses += 1
        if deadline_slack_ms is not None:
            st.deadline_slack.observe(deadline_slack_ms)
            emit(DEADLINE_SLACK, deadline_slack_ms, cls=cls)
        if tenant is not None:
            row = st.tenant_row(tenant)
            row["jobs"] += 1
            row["good" if ok else "violations"] += 1

    def record_queue_wait(self, cls: str, wait_ms: float) -> None:
        self._state(cls).queue_wait.observe(wait_ms)
        emit(QUEUE_WAIT, wait_ms, cls=cls)

    def record_shed(self, cls: str, reason: str,
                    tenant: str | None = None) -> None:
        """Job rejected at admission (never ran); the metric mirror
        labels an unattributed shed ``tenant=default``."""
        emit(SHED_TOTAL, cls=cls, reason=reason,
             tenant="default" if tenant is None else tenant)
        st = self._state(cls)
        st.shed += 1
        st.shed_reasons[reason] = st.shed_reasons.get(reason, 0) + 1
        if tenant is not None:
            st.tenant_row(tenant)["shed"] += 1

    def record_breaker_trip(self, cls: str, device: str) -> None:
        """A circuit breaker opened while serving this class."""
        st = self._state(cls)
        st.breaker_trips[device] = st.breaker_trips.get(device, 0) + 1

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-stable dict: per-class quantiles, counters, burn rate."""
        out = {}
        for name in sorted(self._classes):
            st = self._classes[name]
            lat = st.latency.summary()
            out[name] = {
                "objective": st.slo.objective,
                "latency_p99_objective_ms": st.slo.latency_p99_ms,
                "jobs": st.total,
                "good": st.good,
                "violations": st.violations,
                "shed": st.shed,
                "shed_reasons": dict(sorted(st.shed_reasons.items())),
                "breaker_trips": dict(sorted(st.breaker_trips.items())),
                "deadline_misses": st.deadline_misses,
                "outcomes": dict(sorted(st.outcomes.items())),
                "burn_rate": round(st.burn_rate(), 6),
                "latency_ms": lat,
                "queue_wait_ms": st.queue_wait.summary(),
                "deadline_slack_ms": st.deadline_slack.summary(),
                "tenants": {t: dict(sorted(row.items()))
                            for t, row in sorted(st.tenants.items())},
            }
        return out

    def report(self) -> str:
        """Deterministic fixed-width text report (``repro serve
        --report`` / ``repro top``)."""
        lines = ["== SLO report =="]
        header = (f"  {'class':<12} {'jobs':>5} {'shed':>5} "
                  f"{'viol':>5} {'p50':>9} {'p95':>9} {'p99':>9} "
                  f"{'obj p99':>9} {'burn':>7}")
        lines.append(header)
        for name in sorted(self._classes):
            st = self._classes[name]
            s = st.latency.summary()
            if st.total:
                p50, p95, p99 = (f"{s['p50']:.3f}", f"{s['p95']:.3f}",
                                 f"{s['p99']:.3f}")
            else:
                p50 = p95 = p99 = "-"
            lines.append(
                f"  {name:<12} {st.total:>5d} {st.shed:>5d} "
                f"{st.violations:>5d} {p50:>9} {p95:>9} {p99:>9} "
                f"{st.slo.latency_p99_ms:>9.3f} "
                f"{st.burn_rate():>7.2f}")
        attributed = []
        for name in sorted(self._classes):
            st = self._classes[name]
            for reason, n in sorted(st.shed_reasons.items()):
                attributed.append(
                    f"  shed    {name}: [{reason}] {n}")
            for device, n in sorted(st.breaker_trips.items()):
                attributed.append(
                    f"  breaker {name}: {device} tripped x{n}")
            if st.deadline_misses:
                attributed.append(
                    f"  deadline {name}: {st.deadline_misses} missed")
            for tenant, row in sorted(st.tenants.items()):
                attributed.append(
                    f"  tenant  {name}: {tenant} "
                    f"jobs={row['jobs']} good={row['good']} "
                    f"viol={row['violations']} shed={row['shed']}")
        if attributed:
            lines.append("  -- attribution --")
            lines.extend(attributed)
        return "\n".join(lines)
