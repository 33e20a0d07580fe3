"""Parallel cyclic reduction (PCR), batched NumPy implementation.

The algorithm of §2.2 and Fig 2: every reduction step applies the CR
update formula to *all* equations simultaneously, splitting each system
into two half-size systems of the even- and odd-indexed unknowns.
After ``log2(n) - 1`` steps the batch has decomposed into 2-unknown
systems (pairs at distance n/2), which are solved directly -- for
``log2(n)`` steps total and ``12 n log2 n`` operations (Table 1).

Boundary handling: after ``k`` steps the invariants ``a[i] == 0`` for
``i < 2^k`` and ``c[i] == 0`` for ``i >= n - 2^k`` hold, so clamped
neighbour indices contribute nothing -- the same trick the CUDA kernel
uses instead of branches.

Like :mod:`repro.solvers.cr`, the solver works equation-major on one
``(4, n, S)`` coefficient array and is bit-identical to its kernel
:mod:`repro.kernels.pcr_kernel`, whose planned launches take ``x`` from
it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cr import reduce_equations, solve_two_unknowns
from .systems import TridiagonalSystems
from .validate import require_power_of_two


@lru_cache(maxsize=None)
def _pcr_neighbours(stride: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every equation's clamped left and right neighbour at ``stride``."""
    idx = np.arange(n)
    return np.maximum(idx - stride, 0), np.minimum(idx + stride, n - 1)


def pcr_reduction_step(w, stride: int, n: int) -> None:
    """One PCR step on the equation-major coefficients ``w`` (``(4, n,
    S)``): update every equation against neighbours at ``stride``, in
    place (gather-all then scatter, the vector analogue of the kernel's
    read-sync-write)."""
    left, right = _pcr_neighbours(stride, n)
    reduce_equations(w, w[:, left], w[:, right])


def parallel_cyclic_reduction(systems: TridiagonalSystems) -> np.ndarray:
    """Solve a batch of power-of-two systems by PCR.

    ``log2(n)`` algorithmic steps; free of bank conflicts on the GPU
    because every step accesses unit-stride neighbours of a full
    thread front (§5.3.2).
    """
    require_power_of_two(systems.n, "parallel_cyclic_reduction")
    return np.ascontiguousarray(pcr_on_arrays(systems.equation_major()).T)


def pcr_on_arrays(w) -> np.ndarray:
    """PCR on the equation-major ``(4, m, S)`` coefficients ``w``
    (mutated); returns the ``(m, S)`` solution.  The hybrid solvers
    call it on the copied intermediate system."""
    m = w.shape[1]
    stride = 1
    while 2 * stride < m:
        pcr_reduction_step(w, stride, m)
        stride *= 2
    # stride == m/2: equations (i, i + m/2) now form independent 2x2
    # systems ("solve all 2-unknown systems", Fig 2 step 3).
    a, b, c, d = w
    x = np.empty_like(b)
    x[:stride], x[stride:] = solve_two_unknowns(
        b[:stride], c[:stride], a[stride:], b[stride:], d[:stride],
        d[stride:])
    return x


def operation_count(n: int) -> int:
    """Arithmetic operations of PCR (Table 1: 12 n log2 n)."""
    return 12 * n * int(np.log2(n))


def step_count(n: int) -> int:
    """Algorithmic steps of PCR (Table 1: log2 n)."""
    return int(np.log2(n))
