"""Per-device circuit breaker over the PR-2 fault taxonomy.

A device that keeps throwing
:class:`~repro.gpusim.faults.KernelLaunchError` /
:class:`~repro.gpusim.faults.DataCorruptionError` should stop
receiving chunks *before* every chunk has burned its retry budget on
it.  The breaker is the classic three-state machine, driven entirely
by the scheduler's deterministic modeled clock:

* **closed** -- healthy; failures are counted, ``failure_threshold``
  *consecutive* failures trip the breaker;
* **open** -- the device receives nothing for ``cooldown_ms`` of
  modeled time, then a probe is allowed;
* **half-open** -- probe chunks trickle through;
  ``half_open_successes`` consecutive successes re-close the breaker,
  any failure re-opens it (and restarts the cooldown).

Every transition lands on the
``serve.breaker_transitions{device,from,to}`` counter and in the
breaker's own ``transitions`` log, which the state-machine tests
assert on.  The breaker is serialisable (:meth:`state_dict` /
:meth:`load_state_dict`) so scheduler checkpoints capture it and a
resumed run continues from the same health picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import telemetry
from repro.telemetry.metrics import BREAKER_TRANSITIONS, emit

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass
class BreakerTransition:
    """One recorded state change."""

    frm: str
    to: str
    reason: str     #: trip | cooldown | probe_ok | probe_failed
    at_ms: float    #: modeled time of the transition


@dataclass
class CircuitBreaker:
    """Three-state breaker for one pooled device."""

    name: str
    failure_threshold: int = 3
    cooldown_ms: float = 5.0
    half_open_successes: int = 2
    state: str = CLOSED
    consecutive_failures: int = 0
    probe_successes: int = 0
    opened_at_ms: float = 0.0
    transitions: list[BreakerTransition] = field(default_factory=list)

    def _move(self, to: str, reason: str, now_ms: float) -> None:
        frm = self.state
        self.state = to
        self.transitions.append(
            BreakerTransition(frm=frm, to=to, reason=reason, at_ms=now_ms))
        emit(BREAKER_TRANSITIONS,
             **{"device": self.name, "from": frm, "to": to})
        telemetry.event("serve.breaker", device=self.name, **{
            "from": frm, "to": to, "reason": reason, "at_ms": now_ms})

    # -- the scheduler-facing protocol ---------------------------------

    def allow(self, now_ms: float) -> bool:
        """May this device receive a chunk at modeled time ``now_ms``?

        An open breaker whose cooldown has elapsed transitions to
        half-open here (the probe permission *is* the transition).
        """
        if self.state == OPEN:
            if now_ms - self.opened_at_ms >= self.cooldown_ms:
                self.probe_successes = 0
                self._move(HALF_OPEN, "cooldown", now_ms)
                return True
            return False
        return True

    def record_success(self, now_ms: float) -> None:
        if self.state == HALF_OPEN:
            self.probe_successes += 1
            if self.probe_successes >= self.half_open_successes:
                self.consecutive_failures = 0
                self._move(CLOSED, "probe_ok", now_ms)
        else:
            self.consecutive_failures = 0

    def record_failure(self, now_ms: float, kind: str = "fault") -> None:
        if self.state == HALF_OPEN:
            # One failed probe re-opens immediately; the device has not
            # recovered, no point counting up to the threshold again.
            self.opened_at_ms = now_ms
            self._move(OPEN, "probe_failed", now_ms)
            return
        self.consecutive_failures += 1
        if (self.state == CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self.opened_at_ms = now_ms
            self._move(OPEN, "trip", now_ms)

    # -- checkpoint support --------------------------------------------

    def state_dict(self) -> dict:
        """JSON-ready snapshot of the dynamic state (thresholds are
        configuration, not state, and stay with the scheduler).

        The full *transition history* is part of the state: flap
        detection (the health monitor counting trip cycles) must
        survive a checkpoint/resume, or a resumed run would forgive a
        device its pre-kill flapping.
        """
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "probe_successes": self.probe_successes,
            "opened_at_ms": self.opened_at_ms,
            "transitions": [
                {"from": t.frm, "to": t.to, "reason": t.reason,
                 "at_ms": t.at_ms}
                for t in self.transitions],
        }

    def load_state_dict(self, d: dict) -> None:
        self.state = d["state"]
        self.consecutive_failures = int(d["consecutive_failures"])
        self.probe_successes = int(d["probe_successes"])
        self.opened_at_ms = float(d["opened_at_ms"])
        # Pre-lifecycle checkpoints carry no history; keep whatever
        # this breaker already has rather than inventing an empty past.
        if "transitions" in d:
            self.transitions = [
                BreakerTransition(frm=t["from"], to=t["to"],
                                  reason=t["reason"],
                                  at_ms=float(t["at_ms"]))
                for t in d["transitions"]]

    def trips_since(self, since_ms: float) -> int:
        """How many times this breaker (re-)opened at or after
        ``since_ms`` -- the flap signal the health monitor reads."""
        return sum(1 for t in self.transitions
                   if t.to == OPEN and t.at_ms >= since_ms)
