"""Helpers shared by the solver tests."""

from types import SimpleNamespace

import numpy as np


def equation_major_work(systems):
    """The equation-major ``(4, n, S)`` work array the level helpers
    take, and an ``(S, n)`` view of its ``a, b, c, d`` (``.a`` ...
    ``.d``) for the assertions."""
    work = systems.equation_major()
    return work, SimpleNamespace(**dict(zip("abcd", (x.T for x in work))))


def planes(stored):
    """The six equation-major ``(n, S)`` planes of an ``(S, n, 6)``
    array of stored scan matrices."""
    return [np.ascontiguousarray(stored[..., k].T) for k in range(6)]


def stored(planes):
    """The ``(S, n, 6)`` array of six equation-major planes."""
    return np.stack([p.T for p in planes], axis=-1)


def combine_stored(later, earlier):
    """:func:`repro.solvers.rd.combine` on ``(..., 6)`` stored arrays."""
    from repro.solvers.rd import combine
    return np.stack(combine([later[..., k] for k in range(6)],
                            [earlier[..., k] for k in range(6)]), axis=-1)
