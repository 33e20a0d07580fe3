"""Batched tridiagonal-system container.

The paper's workload is "a large number of small tridiagonal systems"
(§1): hundreds of independent systems solved simultaneously, one per
thread block.  :class:`TridiagonalSystems` holds such a batch as four
``(num_systems, n)`` arrays:

- ``a``: sub-diagonal, ``a[:, 0] == 0`` by convention
- ``b``: main diagonal
- ``c``: super-diagonal, ``c[:, -1] == 0`` by convention
- ``d``: right-hand sides

System ``s`` is ``a[s,i] x[i-1] + b[s,i] x[i] + c[s,i] x[i+1] = d[s,i]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TridiagonalSystems:
    """A batch of independent tridiagonal linear systems.

    All four arrays share one shape ``(num_systems, n)`` and one dtype.
    Construction normalises the out-of-band entries ``a[:, 0]`` and
    ``c[:, -1]`` to zero (they are meaningless; several kernels rely on
    them being exactly zero, mirroring the CUDA code's assumptions).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        arrs = [np.ascontiguousarray(x) for x in (self.a, self.b, self.c, self.d)]
        shapes = {x.shape for x in arrs}
        if len(shapes) != 1:
            raise ValueError(f"a, b, c, d must share a shape, got {shapes}")
        shape = arrs[0].shape
        if len(shape) != 2 or shape[1] < 2:
            raise ValueError(
                f"expected (num_systems, n>=2) arrays, got shape {shape}")
        dtype = np.result_type(*arrs)
        if dtype.kind != "f":
            dtype = np.dtype(np.float64)
        self.a, self.b, self.c, self.d = (x.astype(dtype, copy=True)
                                          for x in arrs)
        self.a[:, 0] = 0
        self.c[:, -1] = 0

    # ------------------------------------------------------------------

    @property
    def num_systems(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        """Unknowns per system."""
        return self.a.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.a.dtype

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    # ------------------------------------------------------------------

    @classmethod
    def from_single(cls, a, b, c, d) -> "TridiagonalSystems":
        """Wrap one system given as 1-D arrays."""
        return cls(np.atleast_2d(a), np.atleast_2d(b),
                   np.atleast_2d(c), np.atleast_2d(d))

    @classmethod
    def from_dense(cls, matrices: np.ndarray, d: np.ndarray) -> "TridiagonalSystems":
        """Extract the three diagonals from dense ``(S, n, n)`` matrices.

        Raises if any matrix has entries off the three diagonals.
        """
        m = np.asarray(matrices)
        if m.ndim == 2:
            m = m[None]
        S, n, n2 = m.shape
        if n != n2:
            raise ValueError("matrices must be square")
        mask = np.zeros((n, n), dtype=bool)
        idx = np.arange(n)
        mask[idx, idx] = True
        mask[idx[1:], idx[:-1]] = True
        mask[idx[:-1], idx[1:]] = True
        if np.any(m[:, ~mask] != 0):
            raise ValueError("matrices have entries off the tridiagonal band")
        a = np.zeros((S, n), dtype=m.dtype)
        c = np.zeros((S, n), dtype=m.dtype)
        a[:, 1:] = m[:, idx[1:], idx[:-1]]
        c[:, :-1] = m[:, idx[:-1], idx[1:]]
        b = m[:, idx, idx].copy()
        return cls(a, b, c, np.atleast_2d(d))

    def to_dense(self) -> np.ndarray:
        """Dense ``(S, n, n)`` matrices (for testing/small systems)."""
        S, n = self.shape
        out = np.zeros((S, n, n), dtype=self.dtype)
        idx = np.arange(n)
        out[:, idx, idx] = self.b
        out[:, idx[1:], idx[:-1]] = self.a[:, 1:]
        out[:, idx[:-1], idx[1:]] = self.c[:, :-1]
        return out

    def copy(self) -> "TridiagonalSystems":
        return TridiagonalSystems(self.a.copy(), self.b.copy(),
                                  self.c.copy(), self.d.copy())

    def take(self, indices) -> "TridiagonalSystems":
        """Sub-batch of the given system indices (rows are copied)."""
        idx = np.asarray(indices, dtype=np.int64)
        return TridiagonalSystems(self.a[idx], self.b[idx],
                                  self.c[idx], self.d[idx])

    def astype(self, dtype) -> "TridiagonalSystems":
        return TridiagonalSystems(*(x.astype(dtype) for x in
                                    (self.a, self.b, self.c, self.d)))

    # ------------------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the tridiagonal operators: returns ``A @ x`` per system."""
        x = np.asarray(x)
        if x.shape != self.shape:
            raise ValueError(f"x shape {x.shape} != systems shape {self.shape}")
        out = self.b * x
        out[:, 1:] += self.a[:, 1:] * x[:, :-1]
        out[:, :-1] += self.c[:, :-1] * x[:, 1:]
        return out

    def residual(self, x: np.ndarray, ord=2) -> np.ndarray:
        """Per-system residual norms ``||A x - d||``.

        Computed in float64 regardless of storage dtype so that the
        residual measures solver error, not evaluation error (this is
        how the paper's Fig 18 residuals are meaningful for float32
        solvers).  Storage of at most 64 bits is widened exactly by
        numpy's promotion against the float64 ``x``, so no coefficient
        array is copied.
        """
        s = self if self.dtype.itemsize <= 8 else self.astype(np.float64)
        r = s.matvec(np.asarray(x, dtype=np.float64))
        r -= s.d
        return np.linalg.norm(r, ord=ord, axis=1)

    def is_diagonally_dominant(self, strict: bool = True) -> np.ndarray:
        """Per-system check of (strict) row diagonal dominance."""
        lhs = np.abs(self.b)
        rhs = np.abs(self.a) + np.abs(self.c)
        return np.all(lhs > rhs if strict else lhs >= rhs, axis=1)
