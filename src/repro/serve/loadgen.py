"""Seeded open-loop load generator for the serve front end.

Models the request mixes the source workloads actually produce
(ROADMAP item 5's "millions of users"): the ADI time-stepping papers
(Carroll et al., arXiv:2107.05395) sweep huge bursts of small systems
with occasional large solves, and the ocean/shallow-water scenarios
submit thousands of small independent columns.  Arrival processes are
Poisson or Poisson-burst; every draw comes from a
:func:`repro.gpusim.pool.derive_seed`-derived generator keyed by
``(seed, tenant)``, so the same seed always produces the same request
stream -- byte for byte -- no matter how many tenants run or in what
order they are generated.

Open-loop means arrivals do not react to service latency: the stream
keeps coming at the offered rate even when the service is drowning,
which is precisely the sustained-overload regime the shedding
acceptance tests need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.pool import derive_seed
from repro.numerics.generators import diagonally_dominant_fluid

from .frontend import ServeRequest
from .quota import TenantSpec


@dataclass(frozen=True)
class SizeClass:
    """One entry of a tenant's request-size mix."""

    num_systems: int
    n: int                         #: unknowns per system (power of two)
    weight: float = 1.0
    slo_class: str = "standard"
    chunk_size: int | None = None  #: optional cap (None: one wave)


@dataclass(frozen=True)
class ArrivalProcess:
    """Poisson arrivals, optionally bursty.

    ``rate_per_ms`` is the mean *request* rate.  With ``burst_mean >
    1`` arrivals come as Poisson-spaced bursts whose sizes are
    geometric with that mean and whose members are ``burst_gap_ms``
    apart -- the ADI-sweep shape where one time step dumps a whole
    batch of solves at once.
    """

    rate_per_ms: float
    burst_mean: float = 1.0
    burst_gap_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_ms <= 0:
            raise ValueError("rate_per_ms must be > 0")
        if self.burst_mean < 1.0:
            raise ValueError("burst_mean must be >= 1")

    def times(self, rng: np.random.Generator,
              horizon_ms: float) -> list[float]:
        """Arrival timestamps in [0, horizon_ms), sorted."""
        out: list[float] = []
        # Burst *events* arrive Poisson at rate/burst_mean so the
        # request rate stays rate_per_ms regardless of burstiness.
        event_rate = self.rate_per_ms / self.burst_mean
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / event_rate))
            if t >= horizon_ms:
                break
            size = 1
            if self.burst_mean > 1.0:
                size = max(1, int(rng.geometric(1.0 / self.burst_mean)))
            for k in range(size):
                at = t + k * self.burst_gap_ms
                if at < horizon_ms:
                    out.append(at)
        # Burst members can spill past the next burst event.
        out.sort()
        return out


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's traffic shape: arrivals plus a size mix."""

    spec: TenantSpec
    arrivals: ArrivalProcess
    mix: tuple[SizeClass, ...]

    def __post_init__(self) -> None:
        if not self.mix:
            raise ValueError(
                f"tenant {self.spec.name!r}: mix must be non-empty")


def adi3d_mix() -> tuple[SizeClass, ...]:
    """ADI time-stepping shape: bursts of small sweep systems, with
    occasional larger whole-plane solves (arXiv:2107.05395)."""
    return (
        SizeClass(4, 32, weight=0.5, slo_class="interactive"),
        SizeClass(16, 64, weight=0.35, slo_class="standard"),
        SizeClass(32, 128, weight=0.15, slo_class="batch"),
    )


def ocean_mix() -> tuple[SizeClass, ...]:
    """Ocean/shallow-water shape: many small independent columns,
    mostly latency-tolerant."""
    return (
        SizeClass(8, 32, weight=0.3, slo_class="interactive"),
        SizeClass(24, 64, weight=0.4, slo_class="standard"),
        SizeClass(48, 64, weight=0.3, slo_class="batch"),
    )


def generate(profiles: list[TenantProfile], *, horizon_ms: float,
             seed: int = 0) -> list[ServeRequest]:
    """Materialise the request stream for every tenant.

    Each tenant draws from its own ``derive_seed(seed, "loadgen",
    tenant)`` generator; per-request system data additionally folds in
    the request index, so no two requests share coefficients yet the
    whole stream is a pure function of ``seed``.  The result is sorted
    by ``(arrival_ms, tenant, request_id)`` -- the same total order
    :meth:`~repro.serve.frontend.ServeFrontend.run` uses.
    """
    requests: list[ServeRequest] = []
    for prof in profiles:
        tenant = prof.spec.name
        rng = np.random.default_rng(derive_seed(seed, "loadgen", tenant))
        weights = np.array([s.weight for s in prof.mix], dtype=np.float64)
        weights /= weights.sum()
        for idx, at in enumerate(prof.arrivals.times(rng, horizon_ms)):
            sc = prof.mix[int(rng.choice(len(prof.mix), p=weights))]
            systems = diagonally_dominant_fluid(
                sc.num_systems, sc.n,
                seed=derive_seed(seed, "loadgen", tenant, idx))
            requests.append(ServeRequest(
                request_id=f"{tenant}-{idx:05d}", tenant=tenant,
                systems=systems, arrival_ms=float(at),
                chunk_size=sc.chunk_size, slo_class=sc.slo_class))
    requests.sort(key=lambda r: (r.arrival_ms, r.tenant, r.request_id))
    return requests


def offered_cost_ms(requests: list[ServeRequest], estimator) -> float:
    """Total modeled cost of a stream (``estimator`` maps a request's
    job shape to modeled ms) -- the numerator of the offered-load
    multiplier the overload scenarios calibrate against."""
    from .job import SolveJob
    total = 0.0
    for r in requests:
        total += float(estimator(SolveJob(
            r.request_id, r.systems, method=r.method,
            chunk_size=r.chunk_size)))
    return total


def overload_profiles(multiplier: float = 2.0, *,
                      scenario: str = "mixed",
                      tenants: int = 3,
                      capacity_ms_per_ms: float = 1.0) -> list[TenantProfile]:
    """Tenant profiles whose arrival rates are ``multiplier`` times the
    pool's admission capacity *at 4-system chunks*.

    ``capacity_ms_per_ms`` is the pool's service rate in modeled ms of
    work per modeled ms (1.0 fits the default pools).  The per-mix mean
    cost constants below were measured once on the GT200 cost model
    with every request cut into 4-system chunks.  Requests now run as
    one launch of up to one occupancy wave, which is cheaper, so
    ``multiplier=2.0`` offers about 1.14x of what
    :meth:`~repro.serve.scheduler.BatchScheduler.estimate_job_ms` prices
    on the default 2-device pool (it still sheds batch work).  The
    constants are kept so that seeded streams stay byte-identical;
    deriving them from the estimator is open work.
    """
    mixes = {"adi3d": adi3d_mix, "ocean": ocean_mix}
    if scenario == "mixed":
        mix_of = lambda i: (adi3d_mix if i % 2 == 0 else ocean_mix)()
    elif scenario in mixes:
        mix_of = lambda i: mixes[scenario]()
    else:
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"pick one of mixed/{'/'.join(sorted(mixes))}")
    #: Measured mean modeled cost (ms) of one request per mix
    #: (GT200 cost model, 4-system chunks, 2-device pool normalisation).
    mean_cost = {"adi3d": 0.026, "ocean": 0.054}
    profiles = []
    for i in range(tenants):
        mix = mix_of(i)
        kind = "adi3d" if mix == adi3d_mix() else "ocean"
        rate = (multiplier * capacity_ms_per_ms
                / (tenants * mean_cost[kind]))
        profiles.append(TenantProfile(
            spec=TenantSpec(f"tenant{i}", weight=float(i % 2 + 1)),
            arrivals=ArrivalProcess(rate_per_ms=rate,
                                    burst_mean=3.0 if kind == "adi3d"
                                    else 1.0,
                                    burst_gap_ms=0.002),
            mix=mix))
    return profiles


__all__ = [
    "SizeClass", "ArrivalProcess", "TenantProfile",
    "adi3d_mix", "ocean_mix", "generate", "offered_cost_ms",
    "overload_profiles",
]
