"""Spectral (DST) Toeplitz tridiagonal solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.numerics.generators import diagonally_dominant_fluid, toeplitz_spd
from repro.solvers.thomas import thomas_batched
from repro.solvers.toeplitz import (is_symmetric_toeplitz,
                                    solve_toeplitz_systems,
                                    toeplitz_eigenvalues, toeplitz_solve)


class TestStructureCheck:
    def test_accepts_toeplitz(self):
        s = toeplitz_spd(3, 16, seed=0, dtype=np.float64)
        assert is_symmetric_toeplitz(s).all()

    def test_rejects_general(self):
        s = diagonally_dominant_fluid(3, 16, seed=1, dtype=np.float64)
        assert not is_symmetric_toeplitz(s).any()

    def test_front_end_raises_on_general(self):
        s = diagonally_dominant_fluid(1, 16, seed=2, dtype=np.float64)
        with pytest.raises(ValueError, match="not symmetric Toeplitz"):
            solve_toeplitz_systems(s)


class TestSpectralSolve:
    @pytest.mark.parametrize("n", [2, 5, 16, 31, 128])
    def test_matches_thomas(self, n):
        s = toeplitz_spd(4, n, seed=n, dtype=np.float64)
        np.testing.assert_allclose(solve_toeplitz_systems(s),
                                   thomas_batched(s), rtol=1e-9,
                                   atol=1e-11)

    def test_poisson_stencil(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((2, 64))
        x = toeplitz_solve(d, 2.0, -1.0)
        # Verify by applying the operator.
        r = 2.0 * x
        r[:, 1:] += -1.0 * x[:, :-1]
        r[:, :-1] += -1.0 * x[:, 1:]
        np.testing.assert_allclose(r, d, rtol=1e-9, atol=1e-11)

    def test_single_rhs_shape(self):
        x = toeplitz_solve(np.ones(8), 4.0, 1.0)
        assert x.shape == (8,)

    def test_eigenvalues_analytic(self):
        lam = toeplitz_eigenvalues(7, 2.0, -1.0)
        k = np.arange(1, 8)
        np.testing.assert_allclose(
            lam, 2.0 - 2.0 * np.cos(np.pi * k / 8), rtol=1e-13)

    def test_singular_detected(self):
        # diag = -2*off*cos(pi/(n+1)) makes mode 1 singular.
        n = 7
        diag = 2.0 * np.cos(np.pi / (n + 1))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            toeplitz_solve(np.ones(n), diag, -1.0)

    def test_mixed_stencil_batch_grouped(self):
        """A batch mixing two stencils solves each group correctly."""
        from repro.solvers.systems import TridiagonalSystems
        rng = np.random.default_rng(4)
        S, n = 6, 32
        diags = np.where(np.arange(S) % 2 == 0, 4.0, 3.0)
        a = np.full((S, n), -1.0)
        c = np.full((S, n), -1.0)
        b = np.tile(diags[:, None], (1, n))
        d = rng.standard_normal((S, n))
        s = TridiagonalSystems(a, b, c, d)
        np.testing.assert_allclose(solve_toeplitz_systems(s),
                                   thomas_batched(s), rtol=1e-9,
                                   atol=1e-11)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=64),
       diag=st.floats(min_value=2.2, max_value=6.0),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_independent_oracle(n, diag, seed):
    """The spectral solver shares no code with Thomas: agreement is a
    strong cross-check of both."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((2, n))
    x = toeplitz_solve(d, diag, -1.0)
    from repro.solvers.systems import TridiagonalSystems
    s = TridiagonalSystems(np.full((2, n), -1.0), np.full((2, n), diag),
                           np.full((2, n), -1.0), d)
    np.testing.assert_allclose(x, thomas_batched(s), rtol=1e-8,
                               atol=1e-10)


def test_serving_does_not_import_scipy_fft():
    """Only the DST solver needs scipy.fft, so importing the serving
    layer must not pay for it."""
    import os
    import subprocess
    import sys

    import repro
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, repro.serve; "
            "assert 'scipy.fft' not in sys.modules, "
            "'scipy.fft imported by repro.serve'")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
