"""Shared fixtures for the test suite.

Batches are kept small (n <= 64, a handful of systems) so the whole
suite runs quickly; integration tests that need the paper's 512x512
configuration build it explicitly and are marked ``slow``-ish by being
few.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.numerics.generators import (close_values,
                                       diagonally_dominant_fluid,
                                       random_dominant, toeplitz_spd)
from repro.solvers.systems import TridiagonalSystems


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def dominant_small():
    """8 diagonally dominant systems of 32 unknowns, float32."""
    return diagonally_dominant_fluid(8, 32, seed=7)


@pytest.fixture
def dominant_batch():
    """16 diagonally dominant systems of 64 unknowns, float32."""
    return diagonally_dominant_fluid(16, 64, seed=11)


@pytest.fixture
def close_batch():
    """RD-friendly close-values systems (not diagonally dominant)."""
    return close_values(8, 64, seed=13)


@pytest.fixture
def spd_batch():
    return toeplitz_spd(4, 32, seed=17)


@pytest.fixture
def dominant_f64():
    return random_dominant(8, 32, seed=19, dtype=np.float64)


def make_systems(S, n, seed=0, dtype=np.float32) -> TridiagonalSystems:
    """Helper for parametrised tests: dominant systems of any shape."""
    return diagonally_dominant_fluid(S, n, seed=seed, dtype=dtype)
