"""Seeded fault injection for the simulated GPU (chaos testing).

Real deployments of the paper's solvers sit behind drivers and links
that fail in well-catalogued ways: kernel launches time out or return
transient errors, DRAM words take single-event upsets (bit flips), and
PCIe transfers arrive corrupted.  This module gives the simulator the
same failure surface so the resilience pipeline
(:mod:`repro.resilience`) can be chaos-tested deterministically:

* a :class:`FaultPlan` is a *seeded* schedule of fault probabilities;
  with the same seed and the same workload it injects the exact same
  faults, which is what makes chaos suites reproducible;
* :func:`inject` activates a plan process-locally (mirroring
  :func:`repro.telemetry.collect`); with no active plan every hook is
  a single ``None`` check, so the plain solve path pays nothing;
* the executor (:mod:`repro.gpusim.executor`) consults the plan for
  launch failures and end-of-kernel global-memory upsets, the kernel
  context flips shared-memory bits at ``__syncthreads()`` boundaries,
  and the host<->device staging helpers corrupt transfers.

The error taxonomy mirrors the CUDA driver's split between *detected*
failures (an error code, an ECC machine-check) and *silent* data
corruption, which no error path reports -- only a downstream residual
check can catch it:

=========================  ==========================================
:class:`KernelLaunchError`   launch failed and stayed failed
:class:`TransientLaunchError` retryable launch failure (timeout-style)
:class:`DataCorruptionError`  ECC/CRC *detected* memory or link upset
silent bit flip              no exception; corrupt numbers downstream
=========================  ==========================================

Every injected fault is recorded on ``plan.events`` and, when
telemetry is active, emitted as a ``fault.injected`` event plus a
``faults.injected{kind=...}`` counter.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np


class GpuFault(RuntimeError):
    """Base class of the simulated hardware-fault taxonomy."""


class KernelLaunchError(GpuFault):
    """A kernel launch failed permanently (or exhausted its retries)."""


class TransientLaunchError(KernelLaunchError):
    """A retryable launch failure (the driver-timeout species).

    The executor retries these with bounded exponential backoff; it
    only escapes to the caller when the retry budget is exhausted.
    """


class DataCorruptionError(GpuFault):
    """A *detected* memory or transfer upset (ECC / link-CRC style).

    Undetected flips raise nothing -- that is the point of chaos
    testing the residual gate in :func:`repro.resilience.robust_solve`.
    """


def _as_ndarray(arr) -> np.ndarray:
    """Unwrap GlobalArray-likes; pass ndarrays through untouched
    (``ndarray.data`` is a memoryview, not the storage we want)."""
    if isinstance(arr, np.ndarray):
        return arr
    return arr.data


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded on the plan."""

    kind: str               #: launch_transient | launch_fatal |
                            #: bitflip_global | bitflip_shared |
                            #: transfer_corrupt
    detail: dict[str, Any]


def flip_bit(data: np.ndarray, flat_index: int, bit: int) -> tuple[float, float]:
    """XOR one bit of a float32/float64 array word, in place.

    Returns ``(old_value, new_value)`` for the event record.
    """
    flat = data.reshape(-1)
    itemsize = flat.dtype.itemsize
    if itemsize == 4:
        view = flat.view(np.uint32)
        mask = np.uint32(1) << np.uint32(bit % 32)
    elif itemsize == 8:
        view = flat.view(np.uint64)
        mask = np.uint64(1) << np.uint64(bit % 64)
    else:  # pragma: no cover - the sim only stores 4/8-byte floats
        raise TypeError(f"cannot flip bits of dtype {flat.dtype}")
    old = float(flat[flat_index])
    view[flat_index] ^= mask
    return old, float(flat[flat_index])


@dataclass
class FaultPlan:
    """A seeded, process-local schedule of injected faults.

    All rates are per-opportunity probabilities drawn from one
    ``numpy`` generator seeded with ``seed``; because the simulator is
    single-threaded and deterministic, the same plan on the same
    workload reproduces the same fault sequence exactly.

    Parameters
    ----------
    seed:
        RNG seed; the determinism anchor for chaos suites.
    launch_transient_rate:
        Probability that any one launch *attempt* fails with a
        retryable :class:`TransientLaunchError`.
    launch_fatal_rate:
        Probability that a launch fails permanently
        (:class:`KernelLaunchError`, no retry).
    global_bitflip_rate:
        Per-array probability, evaluated at kernel completion, of one
        bit flip in a global-memory array the kernel touched.
    shared_bitflip_rate:
        Probability, evaluated at every ``__syncthreads()``, of one
        bit flip somewhere in the block's shared memory.
    transfer_corruption_rate:
        Per-array probability of a bit flip during host<->device
        staging (the PCIe leg).
    ecc_detect_rate:
        Fraction of global/transfer upsets that the (simulated) ECC or
        link CRC *detects*, raising :class:`DataCorruptionError`
        instead of corrupting silently.  Shared memory has no ECC on
        GT200, so shared flips are always silent.
    max_faults:
        Optional cap on total injected faults (chaos budget).
    latency_multiplier:
        Modeled slow-down factor of the whole launch (a *brownout*:
        the device still answers, just late).  The scheduler multiplies
        the cost model's realized milliseconds by it; 1.0 is healthy.
        Injection raises nothing -- only latency-aware callers (the
        serve layer's health monitor and hedging) notice it.
    """

    seed: int = 0
    launch_transient_rate: float = 0.0
    launch_fatal_rate: float = 0.0
    global_bitflip_rate: float = 0.0
    shared_bitflip_rate: float = 0.0
    transfer_corruption_rate: float = 0.0
    ecc_detect_rate: float = 0.0
    max_faults: int | None = None
    latency_multiplier: float = 1.0
    events: list[FaultEvent] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    # -- bookkeeping ---------------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """The plan's seeded generator (shared with the fault draws, so
        jittered backoff stays part of the same reproducible stream)."""
        return self._rng

    @property
    def fault_count(self) -> int:
        return len(self.events)

    def counts(self) -> dict[str, int]:
        """Injected faults by kind (for reports and tests)."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def _budget_left(self) -> bool:
        return self.max_faults is None or len(self.events) < self.max_faults

    def _record(self, kind: str, **detail: Any) -> FaultEvent:
        ev = FaultEvent(kind=kind, detail=detail)
        self.events.append(ev)
        from repro.telemetry import collector as _telemetry
        col = _telemetry.get_collector()
        if col is not None:
            col.metrics.record("faults.injected", kind=kind)
            col.add_event("fault.injected", {"kind": kind, **detail})
        return ev

    # -- launch failures (executor hook) -------------------------------

    def draw_launch_fault(self, kernel: str) -> str | None:
        """Decide the fate of one launch attempt.

        Returns ``None`` (launch proceeds), ``"transient"`` or
        ``"fatal"``.  Fatal is drawn first so a plan with both rates
        nonzero stays deterministic in its draw order.
        """
        if not self._budget_left():
            return None
        if self.launch_fatal_rate and self._rng.random() < self.launch_fatal_rate:
            self._record("launch_fatal", kernel=kernel)
            return "fatal"
        if (self.launch_transient_rate
                and self._rng.random() < self.launch_transient_rate):
            self._record("launch_transient", kernel=kernel)
            return "transient"
        return None

    # -- memory upsets -------------------------------------------------

    def _flip_one(self, data: np.ndarray, kind: str, **detail: Any
                  ) -> FaultEvent:
        flat_index = int(self._rng.integers(data.size))
        bit = int(self._rng.integers(8 * data.dtype.itemsize))
        old, new = flip_bit(data, flat_index, bit)
        return self._record(kind, index=flat_index, bit=bit,
                            old=old, new=new, **detail)

    def corrupt_global_arrays(self, arrays, *, kernel: str = "?"
                              ) -> list[FaultEvent]:
        """End-of-kernel DRAM upsets; returns the *detected* subset.

        ``arrays`` are :class:`~repro.gpusim.memory.GlobalArray`-likes
        (anything with a ``.data`` ndarray).  The caller (the
        executor) raises :class:`DataCorruptionError` when the
        returned list is non-empty.
        """
        detected: list[FaultEvent] = []
        if not self.global_bitflip_rate:
            return detected
        for i, arr in enumerate(arrays):
            data = _as_ndarray(arr)
            if data.size == 0 or not self._budget_left():
                continue
            if self._rng.random() < self.global_bitflip_rate:
                ev = self._flip_one(data, "bitflip_global",
                                    kernel=kernel, array=i)
                if self._rng.random() < self.ecc_detect_rate:
                    detected.append(ev)
        return detected

    def maybe_flip_shared(self, shared_space) -> FaultEvent | None:
        """Shared-memory upset at a ``__syncthreads()`` boundary.

        Always silent (no ECC on GT200 shared memory).
        """
        if not self.shared_bitflip_rate or not self._budget_left():
            return None
        segments = getattr(shared_space, "_segments", None)
        if not segments:
            return None
        if self._rng.random() >= self.shared_bitflip_rate:
            return None
        seg = segments[int(self._rng.integers(len(segments)))]
        return self._flip_one(seg, "bitflip_shared")

    def corrupt_transfer(self, arrays, *, direction: str) -> None:
        """PCIe-leg upsets during staging; raises when the CRC catches one.

        ``arrays`` are ndarrays (or ``.data`` holders); ``direction``
        is ``"h2d"`` or ``"d2h"``.
        """
        if not self.transfer_corruption_rate:
            return
        for i, arr in enumerate(arrays):
            data = _as_ndarray(arr)
            if data.size == 0 or not self._budget_left():
                continue
            if self._rng.random() < self.transfer_corruption_rate:
                ev = self._flip_one(data, "transfer_corrupt",
                                    direction=direction, array=i)
                if self._rng.random() < self.ecc_detect_rate:
                    raise DataCorruptionError(
                        f"link CRC caught a corrupted {direction} transfer "
                        f"(array {i}, word {ev.detail['index']}, "
                        f"bit {ev.detail['bit']})")


# ----------------------------------------------------------------------
# Correlated fault processes (whole-device incidents over modeled time)
# ----------------------------------------------------------------------
#
# A FaultPlan's flat rates model *independent* per-opportunity faults.
# Real incidents are correlated in time: a card browns out for a
# window, a link flaps in bursts, a dying board degrades progressively.
# A FaultProcess is a pure function of modeled time that contributes
# rate overrides and a latency multiplier to the plan derived for a
# chunk attempt -- `PooledDevice.plan_for(..., at_ms=...)` evaluates
# every process at the attempt's modeled start time, so the incident a
# chunk sees is a deterministic function of its schedule position, and
# checkpoint/resume (which restores the modeled clocks) replays it
# exactly.


def combine_rates(*rates: float) -> float:
    """Independent-OR combination of per-opportunity probabilities:
    ``1 - prod(1 - r)``, clamped to [0, 1]."""
    keep = 1.0
    for r in rates:
        keep *= 1.0 - min(1.0, max(0.0, r))
    return 1.0 - keep


@dataclass(frozen=True)
class BrownoutProcess:
    """Latency multiplier over a modeled-time window (slow, not wrong).

    Inside ``[start_ms, start_ms + duration_ms)`` every launch costs
    ``multiplier``x its modeled milliseconds; no extra faults are
    injected.  This is the failure mode circuit breakers cannot see --
    nothing errors -- and exactly what latency-ratio health scoring
    and hedged execution exist for.
    """

    start_ms: float = 0.0
    duration_ms: float = float("inf")
    multiplier: float = 2.0

    def active_at(self, t_ms: float) -> bool:
        return self.start_ms <= t_ms < self.start_ms + self.duration_ms

    def rates_at(self, t_ms: float) -> dict[str, float]:
        return {}

    def latency_multiplier_at(self, t_ms: float) -> float:
        return self.multiplier if self.active_at(t_ms) else 1.0


@dataclass(frozen=True)
class FlappingProcess:
    """Fault bursts on a seeded on/off schedule.

    Modeled time is cut into windows of ``period_ms``; each window is
    independently *down* with probability ``duty``, drawn from a
    generator seeded by ``(seed, window index)`` -- a pure function of
    time, so two runs (or a resumed run) agree on every burst edge.
    During a down window, launches fail fatally with ``fault_rate``;
    between bursts the device looks perfectly healthy, which is what
    defeats a plain breaker (one lucky half-open probe re-closes it).
    """

    seed: int = 0
    period_ms: float = 2.0
    duty: float = 0.5
    fault_rate: float = 1.0

    def down_at(self, t_ms: float) -> bool:
        window = max(0, int(t_ms // self.period_ms))
        draw = np.random.default_rng(
            np.random.SeedSequence([self.seed, window])).random()
        return bool(draw < self.duty)

    def rates_at(self, t_ms: float) -> dict[str, float]:
        if self.down_at(t_ms):
            return {"launch_fatal_rate": self.fault_rate}
        return {}

    def latency_multiplier_at(self, t_ms: float) -> float:
        return 1.0


@dataclass(frozen=True)
class DegradationProcess:
    """Progressive degradation: a fault-probability ramp.

    From ``start_ms`` on, ``field``'s rate grows by ``rate_per_ms``
    per modeled millisecond up to ``max_rate`` -- the dying-board
    profile where early traffic mostly succeeds and late traffic
    mostly does not.
    """

    start_ms: float = 0.0
    rate_per_ms: float = 0.01
    max_rate: float = 1.0
    field: str = "launch_fatal_rate"

    def rate_at(self, t_ms: float) -> float:
        if t_ms <= self.start_ms:
            return 0.0
        return min(self.max_rate, (t_ms - self.start_ms) * self.rate_per_ms)

    def rates_at(self, t_ms: float) -> dict[str, float]:
        rate = self.rate_at(t_ms)
        return {self.field: rate} if rate > 0.0 else {}

    def latency_multiplier_at(self, t_ms: float) -> float:
        return 1.0


#: Everything `PooledDevice.processes` accepts.
FaultProcess = BrownoutProcess | FlappingProcess | DegradationProcess


def evaluate_processes(processes, t_ms: float
                       ) -> tuple[dict[str, float], float]:
    """Fold a device's fault processes at one modeled instant into
    ``(rate overrides, latency multiplier)``.

    Rates from several processes combine independent-OR per field;
    multipliers combine multiplicatively (two overlapping brownouts
    compound).
    """
    rates: dict[str, float] = {}
    multiplier = 1.0
    for proc in processes:
        for fld, rate in proc.rates_at(t_ms).items():
            rates[fld] = combine_rates(rates.get(fld, 0.0), rate)
        multiplier *= proc.latency_multiplier_at(t_ms)
    return rates, multiplier


def find_global_arrays(kernel_args: dict[str, Any]) -> list:
    """Collect every GlobalArray reachable from a launch's kernel args.

    Walks one level of dataclass nesting so the standard
    ``gmem=GlobalSystemArrays(...)`` layout is covered without the
    executor knowing about the kernels package.
    """
    from .memory import GlobalArray

    found: list = []

    def visit(value: Any) -> None:
        if isinstance(value, GlobalArray):
            found.append(value)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                visit(getattr(value, f.name))
        elif isinstance(value, (list, tuple)):
            for v in value:
                visit(v)

    for value in kernel_args.values():
        visit(value)
    return found


# ----------------------------------------------------------------------
# Process-local active plan (mirrors telemetry's collector lifecycle).
# ----------------------------------------------------------------------

_active: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The currently injected plan, or ``None`` (the default)."""
    return _active


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the enclosed block (re-entrant: an inner
    ``inject()`` shadows, then restores, the outer plan)."""
    global _active
    prev = _active
    _active = plan
    try:
        yield plan
    finally:
        _active = prev


#: Per-wait ceiling of the backoff schedule, so chaos suites stay fast
#: even with aggressive plans.
BACKOFF_CAP_S = 0.1

#: Modeled cost (ms) of a launch attempt that dies before any block runs
#: (the host round-trip that returned the launch error).
LAUNCH_FAIL_PENALTY_MS = 0.01


def retry_backoff_s(attempt: int, base_s: float,
                    rng: np.random.Generator | None = None,
                    cap_s: float = BACKOFF_CAP_S) -> float:
    """Bounded exponential backoff schedule for transient launch
    failures: ``base * 2**attempt``, capped at ``cap_s`` per wait.

    With ``rng`` given, applies *full jitter*: the wait is drawn
    uniformly from ``[0, min(base * 2**attempt, cap_s)]``, so
    concurrent retries (many chunks hitting the same flaky device)
    decorrelate instead of hammering it in lockstep.  Pass a *seeded*
    generator (e.g. ``plan.rng``) and the schedule stays exactly
    reproducible.  ``base_s == 0`` returns ``0.0`` without consuming a
    draw -- the strict no-wait fast path the simulator defaults to.
    """
    if base_s <= 0:
        return 0.0
    cap = min(base_s * (2.0 ** attempt), cap_s)
    if rng is None:
        return cap
    return float(rng.uniform(0.0, cap))


def sleep_backoff(attempt: int, base_s: float,
                  rng: np.random.Generator | None = None) -> float:
    """Sleep out the backoff (skipped entirely at ``base_s == 0``,
    the simulator default); returns the actual wait.  ``rng`` enables
    the seeded full-jitter draw of :func:`retry_backoff_s`."""
    wait = retry_backoff_s(attempt, base_s, rng)
    if wait > 0:
        time.sleep(wait)
    return wait
