"""Scaled recursive doubling: the paper's suggested overflow remedy.

§5.4: "One remedy for overflow is to scale the results of matrix chain
multiplication if large numbers are detected, but this method
introduces a considerable amount of control overhead."

The fix exploits that RD's answer only uses *ratios* of the prefix
products' entries (``x_0 = -C[0,2]/C[0,0]`` and
``x_{i+1} = C_i[0,0] x_0 + C_i[0,2]``): each prefix matrix can be
rescaled by any positive factor without changing the maths -- except
that the ratio used for ``x_{i+1}`` mixes ``C_i`` and the *final*
``C_{n-1}``, so per-element scale factors must be tracked and
reconciled in log space.  We scale after every Hillis-Steele step and
carry a per-element log2-scale accumulator; the reconciliation costs
one extra exp2 per unknown (the paper's "considerable control
overhead", modeled in the ablation bench).
"""

from __future__ import annotations

import numpy as np

from repro.solvers.rd import R00, R02, build_matrices, combine
from repro.solvers.systems import TridiagonalSystems
from repro.solvers.validate import require_power_of_two

#: Rescale a prefix product when its largest entry exceeds 2**SCALE_TRIGGER.
SCALE_TRIGGER = 24.0


def scaled_inclusive_scan(matrices
                          ) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Hillis-Steele scan with per-element magnitude normalisation.

    ``matrices`` are the six equation-major ``(n, S)`` planes of
    :func:`~repro.solvers.rd.build_matrices`.  Returns ``(scanned,
    log2_scale, rescales)``: the true prefix product is ``scanned *
    2**log2_scale`` elementwise (the scale is shared by all six stored
    entries of one element), and ``rescales`` counts the element
    rescales made (:func:`scan_rescale_count`).
    """
    m = [plane.astype(np.float64) for plane in matrices]
    logs = np.zeros(m[0].shape)
    count = 0
    stride = 1
    while stride < logs.shape[0]:
        prod = combine([p[stride:] for p in m], [p[:-stride] for p in m])
        # Normalise any element whose magnitude ran away.
        mag = np.maximum.reduce([np.abs(p) for p in prod])
        trigger = mag > 2.0 ** SCALE_TRIGGER
        count += int(np.count_nonzero(trigger))
        with np.errstate(divide="ignore"):
            shift = np.where(trigger, np.floor(np.log2(mag)), 0.0)
        scale = 2.0 ** (-shift)
        for plane, product in zip(m, prod):
            plane[stride:] = product * scale
        logs[stride:] = logs[stride:] + logs[:-stride] + shift
        stride *= 2
    return m, logs, count


def scaled_recursive_doubling(systems: TridiagonalSystems) -> np.ndarray:
    """Overflow-safe RD: always returns finite values.

    Contract (matching the paper's remedy, which addresses *overflow*,
    not RD's intrinsic conditioning):

    * Where plain RD is well-behaved (close-values matrices, small
      dominant systems) the result matches plain RD's accuracy.
    * Where plain float32 RD overflows to inf/NaN (dominant systems
      beyond n ~ 64), this version stays finite -- but the *accuracy*
      is still only as good as recursive doubling fundamentally is on
      such systems (Fig 18 shows RD residuals are poor even when it
      "survives overflow"); the solution evaluation cancels prefix
      products whose true ratio underflows the float64 mantissa, so
      values are clamped into range rather than recovered exactly.

    The intermediate arithmetic runs in float64 with per-element
    rescaling in log2 space -- the library analogue of the paper's
    scale-on-detect remedy, with the "considerable amount of control
    overhead" measured by :func:`scan_rescale_count`.
    """
    require_power_of_two(systems.n, "scaled_recursive_doubling")
    scanned, logs, _ = scaled_inclusive_scan(_matrices(systems))
    n, S = logs.shape

    c00_last = scanned[R00][n - 1]
    c02_last = scanned[R02][n - 1]
    # Same element -> same scale; it cancels in the ratio.
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = -c02_last / c00_last

    x = np.empty((n, S))
    x[0] = x0
    # x_{i+1} = 2**log_i * (c00_i x0 + c02_i).  When the chain grew by
    # many bits the parenthesis cancels below the float64 mantissa and
    # the shifted-back value is noise; clamp it into the float32 range
    # so the caller always sees finite numbers (the remedy's promise).
    body = (scanned[R00][:-1] * x0 + scanned[R02][:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.ldexp(body, np.clip(logs[:-1], -2000, 2000
                                      ).astype(np.int64))
    fmax = float(np.finfo(np.float32).max)
    vals = np.nan_to_num(vals, nan=0.0, posinf=fmax, neginf=-fmax)
    x[1:] = np.clip(vals, -fmax, fmax)
    x[0] = np.clip(np.nan_to_num(x[0], nan=0.0, posinf=fmax,
                                 neginf=-fmax), -fmax, fmax)
    return np.ascontiguousarray(x.T).astype(systems.dtype)


def _matrices(systems: TridiagonalSystems) -> list[np.ndarray]:
    """The batch's scan matrices, as float64 planes."""
    return build_matrices(*systems.equation_major().astype(np.float64))


def scan_rescale_count(systems: TridiagonalSystems) -> int:
    """How many element rescales the scaled scan performs on a batch --
    the control-overhead metric of the ablation bench."""
    return scaled_inclusive_scan(_matrices(systems))[2]
