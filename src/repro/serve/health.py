"""Device health lifecycle: quarantine, canary readmission, eviction.

The circuit breaker (:mod:`repro.serve.breaker`) reacts to *consecutive*
failures on one device; it forgives as soon as a probe succeeds.  That
is the wrong shape for three real failure modes:

* **brownouts** -- the device still answers, just slowly; nothing trips
  a breaker, but every chunk placed there drags the batch's tail;
* **flapping** -- the device alternates between healthy and broken fast
  enough that the breaker keeps half-opening into it, burning retry
  budget each cycle;
* **progressive degradation** -- the fault rate ramps; early on it
  looks like isolated bad luck.

The :class:`HealthMonitor` closes the gap with a per-device lifecycle
driven entirely by seeded-deterministic signals (EWMA fault rate, the
realized-vs-modeled chunk latency ratio, and the breaker's transition
history)::

    active -> suspect -> quarantined -> probation -> active
                              |
                (max_roundtrips re-entries)
                              v
                          evicted  -> warm spare promoted

* **active / suspect** -- placeable.  Suspect is advisory (telemetry
  and the ``--report`` table flag it) but placement is unchanged; it
  exists so operators see trouble *before* the quarantine threshold.
* **quarantined** -- excluded from placement.  After a modeled-time
  dwell, readmission requires ``canary_count`` *consecutive* canary
  solves -- small known-answer systems checked against the verify
  oracle -- passing both a residual gate and a latency gate.
* **probation** -- placeable again, but the next ``probation_chunks``
  real chunks are watched individually; any fault or quarantine-grade
  latency sends the device straight back to quarantine.
* **evicted** -- a device that made ``max_roundtrips`` round-trips
  back into quarantine is flapping by definition and is removed for
  good; a warm spare (if any) is promoted into the placement set.

Everything is a pure function of modeled time and the derived seeds,
so two same-seed runs -- including a run killed and resumed from a
checkpoint -- make identical lifecycle decisions.  The monitor
serialises with :meth:`HealthMonitor.state_dict` /
:meth:`~HealthMonitor.load_state_dict`; spare promotions are re-applied
on load so a resumed scheduler sees the same pool membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import telemetry
from repro.gpusim.costmodel import CostModel
from repro.gpusim.faults import GpuFault, inject
from repro.gpusim.gt200 import gt200_cost_model
from repro.gpusim.pool import DevicePool, PooledDevice, derive_seed
from repro.telemetry.metrics import (record_canary, record_health_score,
                                     record_lifecycle_transition)

ACTIVE = "active"
SUSPECT = "suspect"
QUARANTINED = "quarantined"
PROBATION = "probation"
EVICTED = "evicted"
SPARE = "spare"

#: States the scheduler may place chunks on.
PLACEABLE_STATES = frozenset({ACTIVE, SUSPECT, PROBATION})

#: Modeled cost charged to a device for a canary that faults (mirrors
#: the scheduler's ``LAUNCH_FAIL_PENALTY_MS``).
CANARY_FAIL_PENALTY_MS = 0.01


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds and gates of the device lifecycle.

    The defaults are tuned for the serve suite's modeled-millisecond
    scale: sub-ms chunks, breaker cooldowns of a few ms.  All times are
    modeled time.
    """

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
    #: Breaker (re-)opens within ``trip_window_ms`` that count as a flap
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

    def score(self) -> float:
        """Scalar health in [0, 1] for the ``serve.health_score`` gauge
        (1 = pristine).  Fault rate dominates; latency drag fills in the
        rest."""
        fault_pen = min(1.0, max(0.0, self.ewma_fault))
        ratio_pen = min(1.0, max(0.0, self.ewma_ratio - 1.0))
        return max(0.0, 1.0 - 0.6 * fault_pen - 0.4 * ratio_pen)

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "ewma_fault": self.ewma_fault,
            "ewma_ratio": self.ewma_ratio,
            "observations": self.observations,
            "quarantined_at_ms": self.quarantined_at_ms,
            "quarantine_entries": self.quarantine_entries,
            "roundtrips": self.roundtrips,
            "canary_round": self.canary_round,
            "probation_ok": self.probation_ok,
        }

    @classmethod
    def from_dict(cls, name: str, d: dict) -> "DeviceHealth":
        return cls(
            name=name,
            state=d["state"],
            ewma_fault=float(d["ewma_fault"]),
            ewma_ratio=float(d["ewma_ratio"]),
            observations=int(d["observations"]),
            quarantined_at_ms=float(d["quarantined_at_ms"]),
            quarantine_entries=int(d["quarantine_entries"]),
            roundtrips=int(d["roundtrips"]),
            canary_round=int(d["canary_round"]),
            probation_ok=int(d["probation_ok"]),
        )


class HealthMonitor:
    """Lifecycle driver for every device (and warm spare) in a pool.

    The scheduler feeds it one observation per chunk attempt
    (:meth:`observe_attempt`), notifies it of breaker trips
    (:meth:`note_trip`), and gives it a readmission opportunity at each
    chunk boundary (:meth:`maybe_readmit`).  The monitor answers the
    only question placement asks -- :meth:`allows` -- and keeps a
    JSON-ready :attr:`transitions` log for reports and the
    ``serve.health.jsonl`` artifact.
    """

    def __init__(self, pool: DevicePool, *,
                 policy: HealthPolicy | None = None,
                 seed: int = 0,
                 cost_model: CostModel | None = None):
        self.pool = pool
        self.policy = policy or HealthPolicy()
        self.seed = seed
        self._cost_model = cost_model or gt200_cost_model()
        self.devices: dict[str, DeviceHealth] = {
            d.name: DeviceHealth(name=d.name) for d in pool.devices}
        for d in pool.spares:
            self.devices[d.name] = DeviceHealth(name=d.name, state=SPARE)
        #: Chronological lifecycle log: dicts with device/from/to/reason/at_ms.
        self.transitions: list[dict] = []

    # -- placement gate -------------------------------------------------

    def allows(self, name: str) -> bool:
        """Whether placement may consider this device.  Unknown names
        (the CPU degrade chain) are always allowed."""
        h = self.devices.get(name)
        return h is None or h.state in PLACEABLE_STATES

    def state_of(self, name: str) -> str:
        return self.devices[name].state

    # -- signal intake --------------------------------------------------

    def observe_attempt(self, name: str, *, ok: bool,
                        ratio: float | None = None,
                        now_ms: float = 0.0) -> None:
        """Fold one chunk-attempt outcome into the device's signals and
        run the state machine.

        ``ratio`` is realized/modeled chunk latency (``None`` when the
        attempt faulted before producing a cost, or when no estimate
        exists).
        """
        h = self.devices.get(name)
        if h is None or h.state == EVICTED:
            return
        a = self.policy.ewma_alpha
        h.ewma_fault = a * (0.0 if ok else 1.0) + (1 - a) * h.ewma_fault
        if ok and ratio is not None and math.isfinite(ratio) and ratio > 0:
            h.ewma_ratio = a * ratio + (1 - a) * h.ewma_ratio
        h.observations += 1
        record_health_score(name, h.score())

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

    def note_trip(self, name: str, breaker, now_ms: float) -> None:
        """Called when a device's breaker (re-)opens.  Repeated trips
        inside ``trip_window_ms`` are a flap: quarantine immediately
        rather than letting the breaker half-open into the device again.
        A trip during probation fails the probation outright."""
        h = self.devices.get(name)
        if h is None:
            return
        if h.state == PROBATION:
            self._quarantine(h, "probation_trip", now_ms)
            return
        if h.state not in (ACTIVE, SUSPECT):
            return
        since = now_ms - self.policy.trip_window_ms
        if breaker.trips_since(since) >= self.policy.trip_limit:
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
                    t += CANARY_FAIL_PENALTY_MS
                    record_canary(dev.name, "fault")
                    passed = False
                    break
                multiplier = plan.latency_multiplier if plan else 1.0
                t += self._cost_model.report(launch).total_ms * multiplier
                cmp = compare_to_oracle(systems, x)
                if not cmp.rel_residual_max <= pol.canary_tol:
                    record_canary(dev.name, "residual")
                    passed = False
                    break
                if multiplier > pol.canary_ratio_max:
                    record_canary(dev.name, "latency")
                    passed = False
                    break
                record_canary(dev.name, "ok")
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

    def _move(self, h: DeviceHealth, to: str, reason: str,
              now_ms: float) -> None:
        frm = h.state
        h.state = to
        self.transitions.append({
            "device": h.name, "from": frm, "to": to,
            "reason": reason, "at_ms": now_ms})
        record_lifecycle_transition(h.name, frm, to)
        telemetry.event("serve.lifecycle", device=h.name, **{
            "from": frm, "to": to, "reason": reason, "at_ms": now_ms})

    # -- checkpoint support ---------------------------------------------

    def state_dict(self) -> dict:
        """JSON-ready snapshot: per-device signals + lifecycle states,
        current active-set membership (so spare promotions replay on
        load), and the transition log (flap memory must survive a
        resume)."""
        return {
            "devices": {n: h.to_dict() for n, h in self.devices.items()},
            "active_names": list(self.pool.names),
            "transitions": list(self.transitions),
        }

    def load_state_dict(self, d: dict) -> None:
        for name, hd in d.get("devices", {}).items():
            if name in self.devices:
                self.devices[name] = DeviceHealth.from_dict(name, hd)
        # Re-apply spare promotions: any device the snapshot had in the
        # active set that this fresh pool still holds as a spare gets
        # promoted, in snapshot order, reproducing placement order.
        for name in d.get("active_names", []):
            if name in self.pool.spare_names:
                self.pool.promote_spare(name)
        self.transitions = [dict(t) for t in d.get("transitions", [])]

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready health picture for ``repro serve --json``."""
        return {
            "devices": {
                n: {"state": h.state, "score": round(h.score(), 6),
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
    "PLACEABLE_STATES", "HealthPolicy", "DeviceHealth", "HealthMonitor",
]
