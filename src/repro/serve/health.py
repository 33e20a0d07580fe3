"""Device health: the one per-device authority for placement.

Each pooled device has a **circuit** driven by the typed fault taxonomy:
``failure_threshold`` *consecutive* failed attempts open it; an open
device receives nothing for ``cooldown_ms`` of modeled time, then the
next placement pick half-opens it; :data:`HALF_OPEN_SUCCESSES` probe
successes close it again, a failed probe re-opens it.  The circuit
forgives as soon as a probe succeeds.  That is the wrong shape for
three real failure modes:

* **brownouts** -- the device still answers, just slowly; nothing opens
  the circuit, but every chunk placed there drags the batch's tail;
* **flapping** -- the device alternates between healthy and broken fast
  enough that the circuit keeps half-opening into it, burning retry
  budget each cycle;
* **progressive degradation** -- the fault rate ramps; early on it
  looks like isolated bad luck.

The device **lifecycle** closes the gap with seeded-deterministic
signals (EWMA fault rate, the realized-vs-modeled chunk latency ratio,
and the circuit's open times)::

    active -> suspect -> quarantined -> probation -> active
                              |
                (max_roundtrips re-entries)
                              v
                          evicted  -> warm spare promoted

* **active / suspect** -- placeable.  Suspect is advisory (telemetry
  and the ``--report`` table flag it) but placement is unchanged; it
  exists so operators see trouble *before* the quarantine threshold.
* **quarantined** -- excluded from placement (also entered when the
  circuit opens ``trip_limit`` times in ``trip_window_ms``: a flap).
  After a modeled-time dwell, readmission requires ``canary_count``
  *consecutive* canary solves -- small known-answer systems checked
  against the verify oracle -- passing both a residual gate and a
  latency gate.
* **probation** -- placeable again, but the next ``probation_chunks``
  real chunks are watched individually; any fault or quarantine-grade
  latency sends the device straight back to quarantine.
* **evicted** -- a device that made ``max_roundtrips`` round-trips
  back into quarantine is flapping by definition and is removed for
  good; a warm spare (if any) is promoted into the placement set.

Everything is a pure function of modeled time and the derived seeds,
so two same-seed runs -- including a run killed and resumed from a
checkpoint -- make identical decisions.  The monitor serialises with
:meth:`HealthMonitor.state_dict` /
:meth:`~HealthMonitor.load_state_dict`; spare promotions are re-applied
on load so a resumed scheduler sees the same pool membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import telemetry
from repro.gpusim.faults import LAUNCH_FAIL_PENALTY_MS, GpuFault, inject
from repro.gpusim.gt200 import gt200_cost_model
from repro.gpusim.pool import DevicePool, PooledDevice, derive_seed
from repro.telemetry.metrics import (BREAKER_TRANSITIONS, CANARY_TOTAL,
                                     HEALTH_SCORE, LIFECYCLE_TRANSITIONS,
                                     emit)
from repro.telemetry.slo import DEFAULT_CLASS, SLORegistry

ACTIVE = "active"
SUSPECT = "suspect"
QUARANTINED = "quarantined"
PROBATION = "probation"
EVICTED = "evicted"
SPARE = "spare"

#: States the scheduler may place chunks on.
PLACEABLE_STATES = frozenset({ACTIVE, SUSPECT, PROBATION})

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Consecutive probe successes that close a half-open circuit.
HALF_OPEN_SUCCESSES = 2

#: The attempt outcome of a launch whose result failed the residual gate:
#: corruption slipped past every detector, which is not a circuit failure.
RESIDUAL = "residual"


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds and gates of the device circuit and lifecycle.

    The defaults are tuned for the serve suite's modeled-millisecond
    scale: sub-ms chunks, circuit cooldowns of a few ms.  All times are
    modeled time.
    """

    #: Consecutive failed attempts that open a closed circuit.
    failure_threshold: int = 3
    #: Modeled time an open circuit refuses placement before a probe.
    cooldown_ms: float = 5.0
    #: EWMA smoothing for both the fault-rate and latency-ratio signals.
    ewma_alpha: float = 0.3
    #: EWMA fault rate that turns an active device suspect / quarantines it.
    suspect_fault_rate: float = 0.25
    quarantine_fault_rate: float = 0.55
    #: Realized/modeled latency ratio (EWMA) thresholds.
    suspect_latency_ratio: float = 1.25
    quarantine_latency_ratio: float = 1.75
    #: A suspect device whose signals drop back under these re-activates.
    clear_fault_rate: float = 0.10
    clear_latency_ratio: float = 1.10
    #: Circuit (re-)opens within ``trip_window_ms`` that count as a flap
    #: and quarantine the device outright.
    trip_window_ms: float = 50.0
    trip_limit: int = 2
    #: Modeled dwell in quarantine before canaries are attempted.
    quarantine_ms: float = 2.0
    #: Readmission: ``canary_count`` consecutive canary solves must pass.
    canary_count: int = 3
    canary_systems: int = 2
    canary_n: int = 32
    canary_method: str = "cr_pcr"
    #: Residual gate (vs the oracle) and latency gate (realized/modeled)
    #: a canary must clear.
    canary_tol: float = 1e-4
    canary_ratio_max: float = 1.2
    #: Chunks a readmitted device must complete cleanly on probation.
    probation_chunks: int = 2
    #: Quarantine *re-entries* after which the device is evicted.
    max_roundtrips: int = 2


@dataclass
class DeviceHealth:
    """Dynamic health state of one pooled device."""

    name: str
    state: str = ACTIVE
    ewma_fault: float = 0.0
    ewma_ratio: float = 1.0
    observations: int = 0
    quarantined_at_ms: float = 0.0
    quarantine_entries: int = 0
    roundtrips: int = 0
    canary_round: int = 0
    probation_ok: int = 0
    circuit: str = CLOSED
    consecutive_failures: int = 0
    probe_successes: int = 0
    opened_at_ms: float = 0.0
    #: Every (re-)open time: the flap rule counts those in its window.
    open_times: list[float] = field(default_factory=list)

    def score(self) -> float:
        """Scalar health in [0, 1] for the ``serve.health_score`` gauge
        (1 = pristine).  Fault rate dominates; latency drag fills in the
        rest."""
        fault_pen = min(1.0, max(0.0, self.ewma_fault))
        ratio_pen = min(1.0, max(0.0, self.ewma_ratio - 1.0))
        return max(0.0, 1.0 - 0.6 * fault_pen - 0.4 * ratio_pen)

    def to_dict(self) -> dict:
        """JSON-ready dynamic state: every field but the name (a
        shallow copy: every checkpoint barrier takes one per device)."""
        d = dict(vars(self), open_times=list(self.open_times))
        del d["name"]
        return d

    @classmethod
    def from_dict(cls, name: str, d: dict) -> "DeviceHealth":
        return cls(name=name, **d)


class HealthMonitor:
    """Circuit and lifecycle state of every device (and warm spare) in
    a pool.

    The scheduler charges it once per chunk attempt
    (:meth:`observe_attempt`; circuit trips count against the attempt's
    class in ``slo``), asks it the placement question (:meth:`allows`,
    then :meth:`admit`), and gives it a readmission opportunity at each
    chunk boundary (:meth:`maybe_readmit`).  The monitor keeps a
    JSON-ready lifecycle :attr:`transitions` log for reports and the
    ``serve.health.jsonl`` artifact.
    """

    def __init__(self, pool: DevicePool, *,
                 policy: HealthPolicy | None = None,
                 seed: int = 0, slo: SLORegistry | None = None):
        self.pool = pool
        self.policy = policy or HealthPolicy()
        self.seed = seed
        self.slo = slo
        self._cost_model = gt200_cost_model()
        self.devices: dict[str, DeviceHealth] = {
            d.name: DeviceHealth(name=d.name) for d in pool.devices}
        for d in pool.spares:
            self.devices[d.name] = DeviceHealth(name=d.name, state=SPARE)
        #: Chronological lifecycle log: dicts with device/from/to/reason/at_ms.
        self.transitions: list[dict] = []

    # -- placement gate -------------------------------------------------

    def allows(self, name: str, at_ms: float | None = None) -> bool:
        """Whether placement may consider this device: its lifecycle
        state is placeable and, at modeled time ``at_ms``, its circuit
        is not open inside its cooldown.  Unknown names (the CPU degrade
        chain) are always allowed."""
        h = self.devices.get(name)
        return h is None or (h.state in PLACEABLE_STATES and (
            at_ms is None or h.circuit != OPEN
            or at_ms - h.opened_at_ms >= self.policy.cooldown_ms))

    def admit(self, name: str, at_ms: float) -> None:
        """Placement picked ``name`` at ``at_ms``: an open circuit whose
        cooldown :meth:`allows` found served half-opens here (the probe
        permission *is* the transition)."""
        h = self.devices[name]
        if h.circuit == OPEN:
            h.probe_successes = 0
            self._circuit_move(h, HALF_OPEN, "cooldown", at_ms)

    def state_of(self, name: str) -> str:
        return self.devices[name].state

    # -- signal intake --------------------------------------------------

    def observe_attempt(self, name: str, outcome: str = "ok", *,
                        ratio: float | None = None, now_ms: float = 0.0,
                        cls: str = DEFAULT_CLASS) -> None:
        """Charge one chunk attempt ending at ``now_ms`` to the device:
        ``outcome`` is ``"ok"``, a fault kind (which steps the circuit;
        a trip counts against class ``cls``) or :data:`RESIDUAL` (which
        leaves the circuit alone); then the EWMA signals and lifecycle.
        ``ratio`` is realized/modeled chunk latency (``None`` when no
        cost or no estimate exists).
        """
        h = self.devices.get(name)
        if h is None or h.state == EVICTED:
            return
        ok = outcome in ("ok", RESIDUAL)
        if outcome == "ok":
            self._circuit_success(h, now_ms)
        elif not ok:
            self._circuit_failure(h, outcome, now_ms, cls)
            if h.state == EVICTED:
                return
        a = self.policy.ewma_alpha
        h.ewma_fault = a * (0.0 if ok else 1.0) + (1 - a) * h.ewma_fault
        if ok and ratio is not None and math.isfinite(ratio) and ratio > 0:
            h.ewma_ratio = a * ratio + (1 - a) * h.ewma_ratio
        h.observations += 1
        emit(HEALTH_SCORE, h.score(), device=name)

        if h.state == PROBATION:
            bad_latency = (ratio is not None and math.isfinite(ratio)
                           and ratio >= self.policy.quarantine_latency_ratio)
            if not ok or bad_latency:
                self._quarantine(h, "probation_failed", now_ms)
            else:
                h.probation_ok += 1
                if h.probation_ok >= self.policy.probation_chunks:
                    self._move(h, ACTIVE, "probation_ok", now_ms)
            return

        if h.state not in (ACTIVE, SUSPECT):
            return
        if (h.ewma_fault >= self.policy.quarantine_fault_rate
                or h.ewma_ratio >= self.policy.quarantine_latency_ratio):
            self._quarantine(h, "signal", now_ms)
        elif (h.state == ACTIVE
              and (h.ewma_fault >= self.policy.suspect_fault_rate
                   or h.ewma_ratio >= self.policy.suspect_latency_ratio)):
            self._move(h, SUSPECT, "signal", now_ms)
        elif (h.state == SUSPECT
              and h.ewma_fault <= self.policy.clear_fault_rate
              and h.ewma_ratio <= self.policy.clear_latency_ratio):
            self._move(h, ACTIVE, "recovered", now_ms)

    def _circuit_success(self, h: DeviceHealth, now_ms: float) -> None:
        if h.circuit == HALF_OPEN:
            h.probe_successes += 1
            if h.probe_successes >= HALF_OPEN_SUCCESSES:
                h.consecutive_failures = 0
                self._circuit_move(h, CLOSED, "probe_ok", now_ms)
        else:
            h.consecutive_failures = 0

    def _circuit_failure(self, h: DeviceHealth, kind: str, now_ms: float,
                         cls: str) -> None:
        """Step the circuit on a failed attempt.  A (re-)open is a trip,
        counted against ``cls``; ``trip_limit`` trips inside
        ``trip_window_ms`` are a flap that quarantines the device, and a
        trip during probation fails the probation outright."""
        if h.circuit == HALF_OPEN:
            # One failed probe re-opens immediately; the device has not
            # recovered, no point counting up to the threshold again.
            reason = "probe_failed"
        else:
            h.consecutive_failures += 1
            if (h.circuit != CLOSED or h.consecutive_failures
                    < self.policy.failure_threshold):
                return
            reason = "trip"
        h.opened_at_ms = now_ms
        h.open_times.append(now_ms)
        self._circuit_move(h, OPEN, reason, now_ms)
        if self.slo is not None:
            self.slo.record_breaker_trip(cls, h.name)
        telemetry.event("serve.breaker_trip", device=h.name, cls=cls,
                        kind=kind)
        if h.state == PROBATION:
            self._quarantine(h, "probation_trip", now_ms)
        elif h.state in (ACTIVE, SUSPECT):
            since = now_ms - self.policy.trip_window_ms
            if (sum(t >= since for t in h.open_times)
                    >= self.policy.trip_limit):
                self._quarantine(h, "flap", now_ms)

    # -- readmission ----------------------------------------------------

    def maybe_readmit(self, now_ms: float, clock: dict[str, float]) -> None:
        """Give every dwelled-out quarantined device a canary round.

        ``clock`` is the scheduler's per-device modeled clock; canary
        cost is charged to the candidate device only, so readmission
        testing never slows healthy devices.  Iteration follows pool
        order -- deterministic.
        """
        for dev in self.pool.all_devices():
            h = self.devices[dev.name]
            if h.state != QUARANTINED:
                continue
            if now_ms - h.quarantined_at_ms < self.policy.quarantine_ms:
                continue
            passed = self._run_canaries(dev, h, now_ms, clock)
            h.canary_round += 1
            if passed:
                h.probation_ok = 0
                self._move(h, PROBATION, "canary_ok", now_ms)
            else:
                # Restart the dwell from the failed round; the device
                # gets another chance once it has served its time again.
                h.quarantined_at_ms = now_ms

    def _run_canaries(self, dev: PooledDevice, h: DeviceHealth,
                      now_ms: float, clock: dict[str, float]) -> bool:
        """``canary_count`` consecutive known-answer solves on ``dev``,
        gated on oracle residual and realized/modeled latency.  Charges
        the device's modeled clock; returns whether all passed."""
        from repro.kernels.api import run_kernel
        from repro.numerics.generators import diagonally_dominant_fluid
        from repro.verify.oracle import compare_to_oracle

        pol = self.policy
        t = max(clock.get(dev.name, 0.0), now_ms)
        passed = True
        with telemetry.span("serve.canary", device=dev.name,
                            round=h.canary_round):
            for k in range(pol.canary_count):
                seed = derive_seed(self.seed, "canary", dev.name,
                                   h.canary_round, k)
                systems = diagonally_dominant_fluid(
                    pol.canary_systems, pol.canary_n, seed=seed)
                plan = dev.plan_for(f"canary{h.canary_round}", k, 0,
                                    at_ms=t)
                try:
                    if plan is not None:
                        with inject(plan):
                            x, launch = run_kernel(
                                pol.canary_method, systems,
                                device=dev.spec)
                    else:
                        x, launch = run_kernel(
                            pol.canary_method, systems,
                            device=dev.spec)
                except GpuFault:
                    t += LAUNCH_FAIL_PENALTY_MS
                    emit(CANARY_TOTAL, device=dev.name,
                         result="fault")
                    passed = False
                    break
                multiplier = plan.latency_multiplier if plan else 1.0
                t += self._cost_model.report(launch).total_ms * multiplier
                cmp = compare_to_oracle(systems, x)
                if not cmp.rel_residual_max <= pol.canary_tol:
                    emit(CANARY_TOTAL, device=dev.name,
                         result="residual")
                    passed = False
                    break
                if multiplier > pol.canary_ratio_max:
                    emit(CANARY_TOTAL, device=dev.name,
                         result="latency")
                    passed = False
                    break
                emit(CANARY_TOTAL, device=dev.name, result="ok")
        clock[dev.name] = t
        return passed

    # -- transitions ----------------------------------------------------

    def _quarantine(self, h: DeviceHealth, reason: str,
                    now_ms: float) -> None:
        if h.quarantine_entries > 0:
            h.roundtrips += 1
            if h.roundtrips >= self.policy.max_roundtrips:
                self._evict(h, "flap_evicted", now_ms)
                return
        h.quarantine_entries += 1
        h.quarantined_at_ms = now_ms
        h.probation_ok = 0
        self._move(h, QUARANTINED, reason, now_ms)

    def _evict(self, h: DeviceHealth, reason: str, now_ms: float) -> None:
        self._move(h, EVICTED, reason, now_ms)
        spare = self.pool.promote_spare()
        if spare is not None:
            sh = self.devices[spare.name]
            self._move(sh, ACTIVE, "promoted", now_ms)

    def _circuit_move(self, h: DeviceHealth, to: str, reason: str,
                      now_ms: float) -> None:
        frm = h.circuit
        h.circuit = to
        emit(BREAKER_TRANSITIONS,
             **{"device": h.name, "from": frm, "to": to})
        telemetry.event("serve.breaker", device=h.name, **{
            "from": frm, "to": to, "reason": reason, "at_ms": now_ms})

    def _move(self, h: DeviceHealth, to: str, reason: str,
              now_ms: float) -> None:
        frm = h.state
        h.state = to
        self.transitions.append({
            "device": h.name, "from": frm, "to": to,
            "reason": reason, "at_ms": now_ms})
        emit(LIFECYCLE_TRANSITIONS,
             **{"device": h.name, "from": frm, "to": to})
        telemetry.event("serve.lifecycle", device=h.name, **{
            "from": frm, "to": to, "reason": reason, "at_ms": now_ms})

    # -- checkpoint support ---------------------------------------------

    def state_dict(self) -> dict:
        """JSON-ready snapshot: per-device signals, circuits (with the
        open times the flap rule counts, so flap memory survives a
        resume) and lifecycle states, current active-set membership (so
        spare promotions replay on load), and the transition log."""
        return {
            "devices": {n: h.to_dict() for n, h in self.devices.items()},
            "active_names": list(self.pool.names),
            "transitions": list(self.transitions),
        }

    def load_state_dict(self, d: dict) -> None:
        for name, hd in d["devices"].items():
            if name in self.devices:
                self.devices[name] = DeviceHealth.from_dict(name, hd)
        # Re-apply spare promotions: any device the snapshot had in the
        # active set that this fresh pool still holds as a spare gets
        # promoted, in snapshot order, reproducing placement order.
        for name in d["active_names"]:
            if name in self.pool.spare_names:
                self.pool.promote_spare(name)
        self.transitions = [dict(t) for t in d["transitions"]]

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready health picture for ``repro serve --json``."""
        return {
            "devices": {
                n: {"state": h.state, "circuit": h.circuit,
                    "score": round(h.score(), 6),
                    "ewma_fault": round(h.ewma_fault, 6),
                    "ewma_ratio": round(h.ewma_ratio, 6),
                    "roundtrips": h.roundtrips}
                for n, h in sorted(self.devices.items())},
            "transitions": list(self.transitions),
        }

    def report(self) -> str:
        """Human-readable lifecycle section for ``repro serve --report``."""
        lines = ["device health:"]
        for name in sorted(self.devices):
            h = self.devices[name]
            lines.append(
                f"  {name:<8s} {h.state:<12s} score {h.score():.2f}  "
                f"ewma_fault {h.ewma_fault:.2f}  "
                f"ewma_ratio {h.ewma_ratio:.2f}  "
                f"roundtrips {h.roundtrips}")
        if self.transitions:
            lines.append("  lifecycle transitions:")
            for t in self.transitions:
                lines.append(
                    f"    {t['device']}: {t['from']} -> {t['to']} "
                    f"[{t['reason']}] @ {t['at_ms']:.3f}ms")
        return "\n".join(lines)


__all__ = [
    "ACTIVE", "SUSPECT", "QUARANTINED", "PROBATION", "EVICTED", "SPARE",
    "PLACEABLE_STATES", "CLOSED", "OPEN", "HALF_OPEN", "HealthPolicy",
    "DeviceHealth", "HealthMonitor",
]
