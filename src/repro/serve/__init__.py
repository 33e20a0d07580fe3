"""Resilient batch-solve serving over a simulated multi-device pool.

The production layer above :func:`repro.robust_solve`: where PR-2's
pipeline keeps one *solve* honest, this package keeps a *workload*
healthy when a device degrades mid-run, tenants overload it, or the
process dies halfway through a long job.

* :class:`~repro.serve.job.SolveJob` / :class:`~repro.serve.job.JobReport`
  -- the admission unit and its typed outcome;
* :class:`~repro.serve.health.HealthMonitor` -- the one per-device
  authority for placement: a closed/open/half-open circuit driven by
  the typed device-fault taxonomy, and the lifecycle
  (active/suspect/quarantined/probation/evicted) with EWMA health
  scoring, canary readmission, flap eviction and warm-spare promotion;
* :mod:`~repro.serve.checkpoint` -- the session journal: one JSONL
  file of chunks, barriers and shed decisions; kill a run at any
  chunk, resume it bitwise;
* :class:`~repro.serve.scheduler.BatchScheduler` -- runs one job:
  chunk sharding, deadline budgets, seeded-jitter retries, rerouting,
  and graceful degradation to the CPU chain;
* :class:`~repro.serve.frontend.ServeFrontend` /
  :class:`~repro.serve.frontend.AsyncServeFrontend` -- the only
  admission authority: per-tenant token-bucket quotas and weighted
  fair queueing (:mod:`~repro.serve.quota`), cost-model admission
  with class downgrade, bounded backpressure and strict-by-class load
  shedding under sustained overload;
* :mod:`~repro.serve.loadgen` -- the seeded open-loop load generator
  (Poisson/burst arrivals, ADI/ocean size mixes) that makes overload
  runs bitwise-reproducible.

Quickstart::

    from repro.gpusim import make_pool
    from repro.serve import BatchScheduler, ServeFrontend, ServeRequest

    pool = make_pool(3, seed=0, hot=1)      # gpu1 fails every launch
    fe = ServeFrontend(BatchScheduler(pool, checkpoint_dir="ckpt"))
    shed = fe.offer(ServeRequest("demo", "acme", systems,
                                 deadline_ms=50.0))
    assert shed is None                     # admitted
    out = fe.dispatch_once()
    assert out.report.ok and not out.report.failed_chunks

``BatchScheduler.run_job(job)`` runs a single
:class:`~repro.serve.job.SolveJob` directly, with no admission.

Deterministic by construction: per-chunk fault plans are derived from
``(device, job, chunk, attempt)``, so identical seeded runs -- and
killed-then-resumed runs -- produce bitwise-identical solutions.
See ``docs/robustness.md`` ("Serving layer").
"""

from .checkpoint import (CheckpointWriter, Journal, ResumeState,
                         load_checkpoint)
from .errors import CheckpointMismatchError, ServeError
from .frontend import (AsyncServeFrontend, FrontendConfig, FrontendReport,
                       RequestOutcome, ServeFrontend, ServeRequest)
from .health import (ACTIVE, CLOSED, EVICTED, HALF_OPEN, OPEN, PROBATION,
                     QUARANTINED, SPARE, SUSPECT, DeviceHealth,
                     HealthMonitor, HealthPolicy)
from .job import (DEFAULT_CPU_CHAIN, ChunkAttempt, ChunkRecord, JobReport,
                  SolveJob, digest_array)
from .quota import TenantSpec, TokenBucket, WeightedFairQueue
from .scheduler import BatchScheduler

__all__ = [
    "BatchScheduler", "CLOSED", "OPEN", "HALF_OPEN",
    "HealthMonitor", "HealthPolicy", "DeviceHealth",
    "ACTIVE", "SUSPECT", "QUARANTINED", "PROBATION", "EVICTED", "SPARE",
    "CheckpointWriter", "Journal", "ResumeState", "load_checkpoint",
    "SolveJob", "JobReport", "ChunkRecord", "ChunkAttempt",
    "DEFAULT_CPU_CHAIN", "digest_array",
    "ServeFrontend", "AsyncServeFrontend", "ServeRequest",
    "RequestOutcome", "FrontendConfig", "FrontendReport",
    "TenantSpec", "TokenBucket", "WeightedFairQueue",
    "ServeError", "CheckpointMismatchError",
]
