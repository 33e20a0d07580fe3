"""A pool of simulated devices with per-device fault behaviour.

The serving layer (:mod:`repro.serve`) dispatches batch chunks across
several simulated GPUs.  Each :class:`PooledDevice` pairs a
:class:`~repro.gpusim.device.DeviceSpec` with a *fault profile* -- the
:class:`~repro.gpusim.faults.FaultPlan` rates that describe how healthy
that card is -- and derives a **fresh seeded plan per chunk attempt**.

Deriving the plan from ``(device seed, job key, chunk id, attempt)``
instead of keeping one long-lived RNG stream is what makes
checkpoint/resume bitwise-reproducible: the faults a chunk sees are a
pure function of its coordinates, never of how many chunks ran before
it in this process.  A resumed run that skips already-checkpointed
chunks therefore replays the *exact* fault sequence of an
uninterrupted run for every chunk it recomputes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .device import GTX280, DeviceSpec
from .faults import FaultPlan, combine_rates, evaluate_processes

#: FaultPlan rate fields a pool device's profile may set.
FAULT_RATE_FIELDS = ("launch_transient_rate", "launch_fatal_rate",
                     "global_bitflip_rate", "shared_bitflip_rate",
                     "transfer_corruption_rate", "ecc_detect_rate")


def derive_seed(*parts: int | str) -> int:
    """Mix ints and strings into one deterministic 64-bit-ish seed.

    Strings go through CRC-32 so job ids participate; the mix is a
    :class:`numpy.random.SeedSequence` spawn, which is stable across
    platforms and numpy versions by contract.  The part count is mixed
    in first because ``SeedSequence`` ignores trailing zero entropy
    words -- without it ``derive_seed(s)`` and ``derive_seed(s, 0)``
    (a device index, a chunk id, a first attempt) would collide and
    silently share a stream.
    """
    entropy = [len(parts)] + [
        zlib.crc32(p.encode()) if isinstance(p, str) else int(p)
        for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@dataclass
class PooledDevice:
    """One simulated GPU in a serving pool.

    Parameters
    ----------
    name:
        Stable identifier; used as the telemetry label and the circuit
        breaker key.
    spec:
        Architectural parameters the chunks are simulated with.
    seed:
        Per-device entropy root for derived fault plans.
    fault_rates:
        :class:`~repro.gpusim.faults.FaultPlan` rate kwargs (a subset
        of :data:`FAULT_RATE_FIELDS`).  Empty means a healthy device:
        :meth:`plan_for` returns ``None`` and chunks run injection-free.
    processes:
        Correlated fault processes (brownout / flapping / progressive
        degradation; see :mod:`repro.gpusim.faults`) staged on this
        device.  Each is a pure function of modeled time; they are
        evaluated at the ``at_ms`` a chunk attempt starts, so staged
        incidents replay identically across runs and resumes.
    """

    name: str
    spec: DeviceSpec = GTX280
    seed: int = 0
    fault_rates: dict[str, float] = field(default_factory=dict)
    processes: tuple = ()

    def __post_init__(self) -> None:
        unknown = set(self.fault_rates) - set(FAULT_RATE_FIELDS)
        if unknown:
            raise ValueError(
                f"device {self.name!r}: unknown fault rates {sorted(unknown)}; "
                f"available: {FAULT_RATE_FIELDS}")
        self.processes = tuple(self.processes)

    @property
    def faulty(self) -> bool:
        """Whether any static injection rate is nonzero (correlated
        processes are evaluated per modeled instant instead)."""
        return any(self.fault_rates.get(f, 0.0) for f in FAULT_RATE_FIELDS
                   if f != "ecc_detect_rate")

    def incident_at(self, at_ms: float) -> tuple[dict[str, float], float]:
        """Effective (rate overrides, latency multiplier) of the staged
        processes at modeled time ``at_ms``."""
        if not self.processes:
            return {}, 1.0
        return evaluate_processes(self.processes, at_ms)

    def plan_for(self, job_key: str, chunk_id: int,
                 attempt: int = 0, *,
                 at_ms: float = 0.0) -> FaultPlan | None:
        """A fresh seeded plan for one chunk attempt (``None`` when
        healthy).

        Same ``(device, job, chunk, attempt)`` -> same plan -> same
        injected faults, regardless of execution order or process
        restarts.  ``at_ms`` is the attempt's modeled start time; it
        selects which staged incidents (processes) apply but never
        feeds the seed, so the fault *stream* stays a pure function of
        the chunk coordinates.
        """
        overrides, multiplier = self.incident_at(at_ms)
        rates = dict(self.fault_rates)
        for fld, rate in overrides.items():
            rates[fld] = combine_rates(rates.get(fld, 0.0), rate)
        hot = any(rates.get(f, 0.0) for f in FAULT_RATE_FIELDS
                  if f != "ecc_detect_rate")
        if not hot and multiplier == 1.0:
            return None
        return FaultPlan(
            seed=derive_seed(self.seed, self.name, job_key, chunk_id,
                             attempt),
            latency_multiplier=multiplier,
            **rates)


class DevicePool:
    """An ordered collection of :class:`PooledDevice`.

    Order is meaningful: the scheduler breaks modeled-time ties by pool
    position, which keeps chunk placement deterministic.

    ``spares`` are *warm* spares: initialised, breaker-tracked, but
    outside the placement set until the health monitor promotes one to
    replace an evicted device (:meth:`promote_spare`).  Iteration,
    ``len()`` and ``names`` cover the active set only.
    """

    def __init__(self, devices: list[PooledDevice],
                 spares: list[PooledDevice] | None = None):
        if not devices:
            raise ValueError("a device pool needs at least one device")
        self.spares = list(spares or [])
        names = [d.name for d in devices] + [d.name for d in self.spares]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names in pool: {names}")
        self.devices = list(devices)

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[PooledDevice]:
        return iter(self.devices)

    def __getitem__(self, i: int) -> PooledDevice:
        return self.devices[i]

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.devices]

    @property
    def spare_names(self) -> list[str]:
        return [d.name for d in self.spares]

    def all_devices(self) -> list[PooledDevice]:
        """Active set + warm spares (schedulers track breakers and
        clocks for both, so promotion never changes state shape)."""
        return self.devices + self.spares

    def by_name(self, name: str) -> PooledDevice:
        for d in self.all_devices():
            if d.name == name:
                return d
        raise KeyError(f"no device named {name!r} in pool "
                       f"{self.names + self.spare_names}")

    def promote_spare(self, name: str | None = None) -> PooledDevice | None:
        """Move one warm spare into the placement set (FIFO unless
        ``name`` picks a specific one); returns it, or ``None`` when no
        spare is left.  Appended at the end: promotion never perturbs
        the deterministic tie-break order of incumbent devices."""
        if not self.spares:
            return None
        if name is None:
            spare = self.spares.pop(0)
        else:
            match = [d for d in self.spares if d.name == name]
            if not match:
                return None
            spare = match[0]
            self.spares.remove(spare)
        self.devices.append(spare)
        return spare


def make_pool(num_devices: int, *, seed: int = 0,
              hot: int | None = None,
              hot_rates: dict[str, float] | None = None,
              hot_processes: tuple = (),
              spares: int = 0,
              spec: DeviceSpec = GTX280) -> DevicePool:
    """Convenience pool: ``num_devices`` healthy GPUs, optionally one
    "hot" device with an aggressive fault profile (the standard chaos
    topology of the serve suite and the ``repro serve`` CLI), plus
    ``spares`` warm spares named ``spare0..``.

    ``hot_processes`` stages correlated incidents (brownout, flapping,
    degradation) on the hot device; with processes given and no
    ``hot_rates``, the hot device carries no static rates (the incident
    *is* the fault profile).
    """
    if hot is not None and not 0 <= hot < num_devices:
        raise ValueError(f"hot device index {hot} outside pool of "
                         f"{num_devices}")
    if hot_rates is not None:
        rates = hot_rates
    else:
        rates = {} if hot_processes else {"launch_fatal_rate": 1.0}
    devices = []
    for i in range(num_devices):
        devices.append(PooledDevice(
            name=f"gpu{i}", spec=spec, seed=derive_seed(seed, i),
            fault_rates=dict(rates) if i == hot else {},
            processes=tuple(hot_processes) if i == hot else ()))
    spare_devices = [
        PooledDevice(name=f"spare{i}", spec=spec,
                     seed=derive_seed(seed, "spare", i))
        for i in range(max(0, spares))]
    return DevicePool(devices, spares=spare_devices)
