"""Cyclic reduction (CR), batched NumPy implementation.

The algorithm of §2.1 and Fig 1: forward reduction halves the system
log2(n)-1 times down to two unknowns, the 2-unknown system is solved
directly, and backward substitution recovers the remaining unknowns
level by level.

This module is the library solver and the twin of the instrumented
kernels :mod:`repro.kernels.cr_kernel` (and its ablation variants): a
planned launch takes its ``x`` from here, and the tests hold both to
bit-identical float32 results.  It works *equation-major*, on one
``(4, n, S)`` array of ``a, b, c, d`` rows, so each step moves whole
rows of all ``S`` systems (interleaved storage, as batched GPU solvers
use), with the kernel's elementwise operations in the kernel's order.

Operation structure (one forward step, equation ``i`` with neighbours
at distance ``s``)::

    k1 = a[i] / b[i-s]
    k2 = c[i] / b[i+s]
    a'[i] = -a[i-s] * k1
    b'[i] = b[i] - c[i-s] * k1 - a[i+s] * k2
    c'[i] = -c[i+s] * k2
    d'[i] = d[i] - d[i-s] * k1 - d[i+s] * k2

Boundary handling follows the CUDA code: the rightmost active equation
has ``c == 0`` (invariant maintained from ``c[n-1] == 0``), so its
``k2`` contribution vanishes with a clamped neighbour index; likewise
the leftmost active equation keeps ``a == 0``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .systems import TridiagonalSystems
from .validate import require_power_of_two


def reduce_equations(rows, left, right) -> None:
    """The CR/PCR update of the equations ``rows`` against their left
    and right neighbours, in place.

    Each argument is an equation-major ``(4, k, S)`` coefficient block
    (``a, b, c, d``).  ``rows`` is written as it is read, so neither
    neighbour block may share memory with it: CR's left neighbours are
    other rows of the same array, PCR's are gathered copies.  Shared by
    CR, PCR and the hybrids.
    """
    a, b, c, d = rows
    al, bl, cl, dl = left
    ar, br, cr, dr = right
    with np.errstate(divide="ignore", invalid="ignore"):
        k1 = a / bl
        k2 = c / br
    np.multiply(-al, k1, out=a)
    b -= cl * k1
    b -= ar * k2
    np.multiply(-cr, k2, out=c)
    d -= dl * k1
    d -= dr * k2


@lru_cache(maxsize=None)
def _cr_neighbours(stride: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CR's clamped neighbour indices at ``stride``: the right ones of
    forward reduction (the last active equation has ``c == 0``, which
    kills its clamped term) and the left ones of backward substitution
    (the first has ``a == 0``)."""
    half = stride // 2
    right = np.minimum(np.arange(stride - 1 + half, n + half, stride), n - 1)
    left = np.maximum(np.arange(-1, n - half, stride), 0)
    return right, left


def forward_reduction_level(w, stride: int, n: int) -> None:
    """One in-place forward-reduction level of the equation-major
    coefficients ``w`` (``(4, n, S)``): equations ``stride-1,
    2*stride-1, ...`` absorb their neighbours at ``stride // 2``."""
    reduce_equations(w[:, stride - 1::stride], w[:, stride // 2 - 1::stride],
                     w[:, _cr_neighbours(stride, n)[0]])


def solve_two_unknowns(b, c, a2, b2, d, d2):
    """Solve the 2x2 systems ``[[b, c], [a2, b2]] [x1, x2] = [d, d2]``.

    All arguments are arrays of matching shape; returns ``(x1, x2)``.
    Used by CR's middle stage and by PCR's final stage.
    """
    det = b * b2 - c * a2
    x1 = (d * b2 - c * d2) / det
    x2 = (b * d2 - d * a2) / det
    return x1, x2


def backward_substitution_level(w, x, stride: int, n: int) -> None:
    """Solve unknowns ``stride/2 - 1, 3*stride/2 - 1, ...`` of the
    ``(n, S)`` solution ``x`` given the solved ones at distance
    ``stride // 2`` (``w`` as in :func:`forward_reduction_level`)."""
    half = stride // 2
    a, b, c, d = w[:, half - 1::stride]
    x[half - 1::stride] = (d - a * x[_cr_neighbours(stride, n)[1]]
                           - c * x[stride - 1::stride]) / b


def cyclic_reduction(systems: TridiagonalSystems) -> np.ndarray:
    """Solve a batch of power-of-two systems by cyclic reduction.

    Returns the ``(num_systems, n)`` solution array in the systems'
    dtype.  ``2 * log2(n) - 1`` algorithmic steps (Table 1).
    """
    n = systems.n
    require_power_of_two(n, "cyclic_reduction")
    w = systems.equation_major()
    # Forward reduction down to the 2-unknown system (indices n/2-1
    # and n-1), then backward substitution.
    forward_reduce_to(w, n, 2)
    a, b, c, d = w
    x = np.zeros_like(b)
    i1 = n // 2 - 1
    x[i1], x[-1] = solve_two_unknowns(b[i1], c[i1], a[-1], b[-1], d[i1],
                                      d[-1])
    back_substitute_from(w, x, n, 2)
    return np.ascontiguousarray(x.T)


def forward_reduce_to(systems_work: np.ndarray, n: int,
                      m: int) -> np.ndarray:
    """Run CR forward reduction in place until ``m`` unknowns remain.

    ``systems_work`` is the mutable equation-major ``(4, n, S)``
    coefficient array (``a, b, c, d``).  Returns the indices of the
    surviving equations (``stride-1, 2*stride-1, ...`` with ``stride =
    n // m``).  Shared with the hybrid solvers.
    """
    require_power_of_two(n, "forward_reduce_to")
    require_power_of_two(m, "forward_reduce_to")
    if not 2 <= m <= n:
        raise ValueError(f"intermediate size {m} outside [2, {n}]")
    stride = 1
    while n // stride > m:
        stride *= 2
        forward_reduction_level(systems_work, stride, n)
    return stride * (np.arange(m) + 1) - 1


def back_substitute_from(systems_work: np.ndarray, x: np.ndarray, n: int,
                         m: int) -> None:
    """CR backward substitution from an ``m``-unknown solved level.

    Fills in the unknowns of the ``(n, S)`` solution ``x`` that
    :func:`forward_reduce_to` skipped, given ``x`` already holds values
    at the surviving indices.
    """
    stride = n // m
    while stride > 1:
        backward_substitution_level(systems_work, x, stride, n)
        stride //= 2


def operation_count(n: int) -> int:
    """Arithmetic operations of CR (Table 1: 17n)."""
    return 17 * n


def step_count(n: int) -> int:
    """Algorithmic steps of CR (Table 1: 2 log2 n - 1)."""
    return 2 * int(np.log2(n)) - 1
