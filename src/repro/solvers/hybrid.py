"""Hybrid CR+PCR and CR+RD solvers (§3, Fig 4) -- the paper's headline
contribution.

Structure: run CR forward reduction until the system shrinks to an
*intermediate size* ``m``, copy the surviving equations to a fresh
contiguous buffer (the paper copies to "another five arrays in shared
memory", §4 -- the copy is what makes the inner solver bank-conflict
free and modular), solve the m-unknown system with PCR or RD, scatter
the solved unknowns back, and finish with CR backward substitution.

The switch point trades CR's work-efficiency against PCR/RD's
step-efficiency; the best ``m`` on the GTX 280 is far larger than the
warp size (256 for CR+PCR, 128 for CR+RD at n = 512; Fig 17) because
late CR steps suffer bank conflicts and poor vector utilisation on top
of their low parallelism.
"""

from __future__ import annotations

from typing import Callable, Literal

import numpy as np

from repro import paper

from .cr import back_substitute_from, forward_reduce_to
from .pcr import pcr_on_arrays
from .rd import rd_on_arrays
from .systems import TridiagonalSystems
from .validate import require_power_of_two

InnerName = Literal["pcr", "rd"]

_INNER: dict[str, Callable] = {"pcr": pcr_on_arrays, "rd": rd_on_arrays}

def default_intermediate_size(n: int, inner: InnerName) -> int:
    """Heuristic switch point when the caller does not give one.

    Uses the paper's measured optimum ratio n / m at n = 512
    (:data:`repro.paper.BEST_M`, Fig 17) scaled to the problem size,
    floored at 2.  :mod:`repro.analysis.autotune` finds the true
    optimum for a device/cost-model pair.
    """
    return max(2, n // (paper.N // paper.BEST_M[f"cr_{inner}"]))


def hybrid_solve(systems: TridiagonalSystems, inner: InnerName = "pcr",
                 intermediate_size: int | None = None) -> np.ndarray:
    """Solve a batch with the CR+PCR or CR+RD hybrid.

    Parameters
    ----------
    systems:
        Power-of-two batch.
    inner:
        ``"pcr"`` or ``"rd"`` -- the solver applied to the intermediate
        system.
    intermediate_size:
        Switch point ``m`` (power of two, ``2 <= m <= n``).  ``m == n``
        degenerates to the pure inner solver, ``m == 2`` to pure CR --
        the endpoints of Fig 17.  Defaults to
        :func:`default_intermediate_size`.
    """
    if inner not in _INNER:
        raise ValueError(f"inner must be one of {sorted(_INNER)}, got {inner!r}")
    n = systems.n
    require_power_of_two(n, "hybrid_solve")
    m = (default_intermediate_size(n, inner)
         if intermediate_size is None else int(intermediate_size))
    require_power_of_two(m, "hybrid_solve intermediate size")
    if not 2 <= m <= n:
        raise ValueError(f"intermediate size {m} outside [2, {n}]")

    work = systems.copy()
    arrays = (work.a, work.b, work.c, work.d)
    surviving = forward_reduce_to(arrays, n, m)

    # Copy the intermediate system to fresh contiguous storage (§4).
    ia = work.a[:, surviving].copy()
    ib = work.b[:, surviving].copy()
    ic = work.c[:, surviving].copy()
    id_ = work.d[:, surviving].copy()

    xi = _INNER[inner](ia, ib, ic, id_)

    x = np.zeros(systems.shape, dtype=systems.dtype)
    x[:, surviving] = xi
    back_substitute_from(arrays, x, n, m)
    return x


def cr_pcr(systems: TridiagonalSystems,
           intermediate_size: int | None = None) -> np.ndarray:
    """Hybrid CR+PCR (§5.3.4)."""
    return hybrid_solve(systems, "pcr", intermediate_size)


def cr_rd(systems: TridiagonalSystems,
          intermediate_size: int | None = None) -> np.ndarray:
    """Hybrid CR+RD (§5.3.5)."""
    return hybrid_solve(systems, "rd", intermediate_size)


def operation_count(n: int, m: int, inner: InnerName) -> int:
    """Arithmetic operations (Table 1 rows CR+PCR / CR+RD)."""
    logm = int(np.log2(m))
    inner_ops = (12 if inner == "pcr" else 20) * m * logm
    return 17 * (n - m) + inner_ops


def step_count(n: int, m: int, inner: InnerName) -> int:
    """Algorithmic steps (Table 1)."""
    logn, logm = int(np.log2(n)), int(np.log2(m))
    if inner == "pcr":
        return 2 * logn - logm - 1
    return 2 * logn - logm + 1
