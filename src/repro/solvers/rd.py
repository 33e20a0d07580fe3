"""Recursive doubling (RD) in scan form, batched NumPy implementation.

The algorithm of §2.3 and Fig 3 (Stone's method as reformulated by
Egecioglu et al.): equation ``i`` rewritten as a 3x3 matrix recurrence

    [x_{i+1}, x_i, 1]^T = B_i [x_i, x_{i-1}, 1]^T

    B_i = [[-b_i/c_i,  -a_i/c_i,  d_i/c_i],
           [    1,          0,        0   ],
           [    0,          0,        1   ]]

so the prefix products ``C_i = B_i ... B_0`` (computed with a
step-efficient Hillis-Steele scan, log2 n steps) express every unknown
linearly in ``x_0``; the last equation pins ``x_0 = -C[0,2]/C[0,0]``.

Implementation notes mirroring the paper's kernel (§4):

* Only the first two rows of each matrix are stored (the third is
  always ``[0, 0, 1]``), 6 floats per equation, saving arithmetic --
  20 operations per 3x3 product instead of the general 45.
* The last equation has ``c == 0``; its matrix is built with a formal
  ``c = 1`` (the row is then *enforced* rather than propagated, which
  is where the ``x_0`` formula comes from).
* There is no division in the scan itself; all divisions happen in
  matrix setup (and one in solution evaluation).  The chain products
  can overflow float32 for diagonally dominant matrices -- the paper's
  §5.4 observation, reproduced here naturally.  See
  :mod:`repro.numerics.scaling` for the scaled variant.
* The six stored entries live in six separate equation-major ``(n,
  S)`` planes, so the scan combines whole rows of all systems at once.
  The solver is bit-identical to :mod:`repro.kernels.rd_kernel`, whose
  planned launches take ``x`` from it.  Solution evaluation runs over
  the same full plane the kernel's lanes do, so overflowed systems
  keep the kernel's NaN signs too.
"""

from __future__ import annotations

import numpy as np

from .systems import TridiagonalSystems
from .validate import require_power_of_two

#: Plane order of the stored 2x3 top of each scan matrix.
R00, R01, R02, R10, R11, R12 = range(6)


def build_matrices(a, b, c, d) -> list[np.ndarray]:
    """Matrix setup phase: the stored rows of the B_i as six
    equation-major ``(n, S)`` planes, indexed ``R00 .. R12``.

    Divisions: three per equation (``-b/c, -a/c, d/c``).  The last
    equation uses the formal ``c = 1`` substitution.
    """
    cc = c.copy()
    cc[-1] = 1  # formal c for the last equation (see module docstring)
    with np.errstate(divide="ignore", invalid="ignore"):
        r00 = -b / cc
        r01 = -a / cc
        r02 = d / cc
    return [r00, r01, r02, np.ones_like(b), np.zeros_like(b),
            np.zeros_like(b)]


def combine(later, earlier) -> list[np.ndarray]:
    """Product of stored-2x3 scan matrices: ``later @ earlier``, each
    given as its six planes.

    20 arithmetic operations per element pair (the paper's count),
    exploiting the implicit third row ``[0, 0, 1]``.
    """
    a00, a01, a02, a10, a11, a12 = later
    b00, b01, b02, b10, b11, b12 = earlier
    return [a00 * b00 + a01 * b10,
            a00 * b01 + a01 * b11,
            a00 * b02 + a01 * b12 + a02,
            a10 * b00 + a11 * b10,
            a10 * b01 + a11 * b11,
            a10 * b02 + a11 * b12 + a12]


def inclusive_scan(matrices) -> list[np.ndarray]:
    """Hillis-Steele inclusive scan over the equation axis of the six
    planes.

    Step-efficient (log2 n steps), not work-efficient -- the paper
    picks this variant deliberately because step count dominates GPU
    runtime (§2.3, §5.3).  Operates on a copy.
    """
    return _scan_in_place([plane.copy() for plane in matrices])


def _scan_in_place(m: list[np.ndarray]) -> list[np.ndarray]:
    """:func:`inclusive_scan` over the planes ``m`` themselves."""
    n = m[0].shape[0]
    stride = 1
    while stride < n:
        # later element i absorbs earlier element i - stride
        products = combine([p[stride:] for p in m],
                           [p[:-stride] for p in m])
        for plane, product in zip(m, products):
            plane[stride:] = product
        stride *= 2
    return m


def evaluate_solution(scanned) -> np.ndarray:
    """Solution evaluation phase: the ``(n, S)`` unknowns from the
    prefix products.

    ``x_0 = -C_{n-1}[0,2] / C_{n-1}[0,0]``; then
    ``x_{i+1} = C_i[0,0] * x_0 + C_i[0,2]``.
    """
    c00, c02 = scanned[R00], scanned[R02]
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = -c02[-1] / c00[-1]
    # Every row evaluates, row 0 against the clamped C_0, with x_0
    # broadcast over a whole plane: the kernel's lanes do the same, so
    # each product meets the same vector loop there and here (a NaN's
    # sign can depend on it).
    prev = np.maximum(np.arange(c00.shape[0]) - 1, 0)
    x = np.empty_like(c00)
    x[:] = x0
    x = c00[prev] * x + c02[prev]
    x[0] = x0
    return x


def recursive_doubling(systems: TridiagonalSystems) -> np.ndarray:
    """Solve a batch of power-of-two systems by recursive doubling.

    ``log2(n) + 2`` algorithmic steps: matrix setup, the scan, and
    solution evaluation (Table 1).
    """
    require_power_of_two(systems.n, "recursive_doubling")
    return np.ascontiguousarray(rd_on_arrays(systems.equation_major()).T)


def rd_on_arrays(w) -> np.ndarray:
    """RD on the equation-major ``(4, m, S)`` coefficients ``w`` (the
    hybrids' inner solver); returns the ``(m, S)`` solution."""
    return evaluate_solution(_scan_in_place(build_matrices(*w)))


def operation_count(n: int) -> int:
    """Arithmetic operations of RD (Table 1: 20 n log2 n)."""
    return 20 * n * int(np.log2(n))


def step_count(n: int) -> int:
    """Algorithmic steps of RD (Table 1: log2 n + 2)."""
    return int(np.log2(n)) + 2
