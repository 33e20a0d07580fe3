"""Fast solver for symmetric Toeplitz tridiagonal systems via the
discrete sine transform.

Constant-coefficient tridiagonal matrices ``toeplitz(off, diag, off)``
are diagonalized by the type-I DST: the eigenvectors are sine modes,
``lambda_k = diag + 2 off cos(k pi / (n+1))``.  Solving is then three
O(n log n) transforms-and-scale steps -- the same spectral trick
Hockney's fast Poisson solver [16] applies in 2-D, specialised to a
single system.

This is both a fast path for the library (heat/Poisson stencils are
Toeplitz) and an independent oracle for testing the general solvers:
it shares no code path with Thomas/CR/PCR.
"""

from __future__ import annotations

import numpy as np

from .systems import TridiagonalSystems


def is_symmetric_toeplitz(systems: TridiagonalSystems,
                          rtol: float = 0.0) -> np.ndarray:
    """Per-system check for the toeplitz(off, diag, off) structure."""
    b0 = systems.b[:, :1]
    a1 = systems.a[:, 1:2]
    diag_const = np.all(np.abs(systems.b - b0) <= rtol * np.abs(b0) + 0,
                        axis=1)
    sub_const = np.all(systems.a[:, 1:] == a1, axis=1)
    sup_const = np.all(systems.c[:, :-1] == a1, axis=1)
    return diag_const & sub_const & sup_const


def toeplitz_eigenvalues(n: int, diag: float, off: float) -> np.ndarray:
    """Spectrum of toeplitz(off, diag, off), ascending in mode index."""
    k = np.arange(1, n + 1)
    return diag + 2.0 * off * np.cos(np.pi * k / (n + 1))


def toeplitz_solve(d: np.ndarray, diag: float, off: float) -> np.ndarray:
    """Solve ``toeplitz(off, diag, off) x = d`` for a batch of
    right-hand sides ``(S, n)`` (or one, ``(n,)``) in O(n log n).

    Raises if any eigenvalue vanishes (the matrix is singular exactly
    when ``diag = -2 off cos(k pi/(n+1))`` for some mode k).
    """
    # Imported here: scipy.fft is most of ``import repro``'s time, and
    # only this solver needs it.
    from scipy.fft import dst, idst

    d = np.asarray(d, dtype=np.float64)
    single = d.ndim == 1
    D = np.atleast_2d(d)
    n = D.shape[1]
    lam = toeplitz_eigenvalues(n, diag, off)
    if np.any(np.abs(lam) < 1e-300):
        raise np.linalg.LinAlgError(
            "singular Toeplitz tridiagonal system (eigenvalue hit zero)")
    # DST-I is (up to scale) its own inverse: x = S (S d / lam) with the
    # scipy norm conventions handled by dst/idst pairing.
    spec = dst(D, type=1, axis=1)
    x = idst(spec / lam[None, :], type=1, axis=1)
    return x[0] if single else x


def solve_toeplitz_systems(systems: TridiagonalSystems) -> np.ndarray:
    """Batch front-end: verifies the structure, then runs the spectral
    solve per distinct coefficient pair (grouped, so a batch sharing one
    stencil costs one transform set)."""
    ok = is_symmetric_toeplitz(systems)
    if not bool(np.all(ok)):
        bad = int(np.flatnonzero(~ok)[0])
        raise ValueError(
            f"system {bad} is not symmetric Toeplitz tridiagonal; use a "
            f"general solver")
    S, n = systems.shape
    out = np.empty((S, n), dtype=np.float64)
    coeffs = np.stack([systems.b[:, 0],
                       np.where(n > 1, systems.a[:, 1], 0.0)], axis=1)
    # Group identical stencils to share transforms.
    uniq, inverse = np.unique(coeffs, axis=0, return_inverse=True)
    for g, (diag, off) in enumerate(uniq):
        rows = np.flatnonzero(inverse == g)
        out[rows] = toeplitz_solve(systems.d[rows].astype(np.float64),
                                   float(diag), float(off))
    return out.astype(systems.dtype)
