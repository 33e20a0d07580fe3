"""Planned launches against traced ones.

A planned :func:`~repro.kernels.api.run_kernel` (no fault plan, no
``step_limit``) runs no kernel: ``x`` comes from the kernel's solver
twin (``KERNELS[name].twin``, a ``SOLVERS`` key) on a float32 copy of
the systems, and the ledger, price and telemetry from the plan's memo
entry.  These tests hold every planned launch to the traced launch of
the same plan, bit for bit, and pin the twins' side conditions: they
leave the caller's arrays alone and stay silent where the kernel is.
"""

import warnings

import numpy as np
import pytest

from repro import solve
from repro.gpusim import BlockContext, ledgers_equal
from repro.gpusim.estimator import characterize
from repro.gpusim.memory import KernelError
from repro.kernels.api import KERNELS, plan_launch, run_kernel
from repro.numerics.generators import close_values, diagonally_dominant_fluid
from repro.solvers.api import SOLVERS

from .conftest import traced_kernel

#: Every (kernel, layout) a plan can name.
PLANS = [(name, layout) for name, entry in KERNELS.items()
         for layout in entry.layouts]

#: The kernels' twins.
TWINS = sorted({entry.twin for entry in KERNELS.values()})


def _admitted(name, layout):
    """``(n, wave)`` for each power of two ``n`` up to the paper's 512
    that the kernel's shared-memory limit admits, with the systems in
    one occupancy wave of its plan."""
    for n in (2 ** e for e in range(1, 10)):
        plan = plan_launch(name, n, 1, layout=layout)
        try:
            block = characterize(plan)
        except KernelError:
            continue
        device = plan.device
        yield n, (device.num_sms * plan.systems_per_block
                  * device.blocks_per_sm(block.shared_bytes,
                                         block.threads_per_block))


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint32),
                                                 y.view(np.uint32))


@pytest.mark.parametrize("name,layout", PLANS)
def test_planned_launch_equals_traced_launch(name, layout):
    """Over every n the kernel admits, batches of 1, 3, one wave and a
    wave plus one, and a dominant and a close-values class (RD
    overflows to inf/NaN on the first from n = 128, §5.4): the planned
    ``x`` is the traced ``x`` bit for bit, NaN signs included, and the
    planned ledger is the traced one."""
    checked = 0
    for n, wave in _admitted(name, layout):
        for S in sorted({1, 3, wave, wave + 1}):
            for gen in (diagonally_dominant_fluid, close_values):
                s = gen(S, n, seed=n + S)
                with np.errstate(all="ignore"):
                    x_traced, traced = traced_kernel(name, s, layout=layout)
                x, planned = run_kernel(name, s, layout=layout)
                where = f"{name}/{layout} {S}x{n} {gen.__name__}"
                assert _same_bits(x, x_traced), where
                assert ledgers_equal(planned.ledger, traced.ledger) == [], \
                    where
                assert planned.ledger.step_records == \
                    traced.ledger.step_records, where
                checked += 1
    assert checked >= 4 * 2 * 5


@pytest.mark.parametrize("S", [1, 4])
@pytest.mark.parametrize("twin", TWINS)
def test_twin_leaves_callers_arrays_unchanged(twin, S):
    """The twins work on equation-major copies: at S = 1 the transpose
    of an ``(1, n)`` array is already C-ordered, so a layout change that
    does not force a copy would write into the caller's systems."""
    s = diagonally_dominant_fluid(S, 32, seed=S)
    before = [arr.tobytes() for arr in (s.a, s.b, s.c, s.d)]
    with np.errstate(all="ignore"):
        SOLVERS[twin](s, intermediate_size=None)
    assert [arr.tobytes() for arr in (s.a, s.b, s.c, s.d)] == before


@pytest.mark.parametrize("S", [1, 4])
@pytest.mark.parametrize("name,layout", PLANS)
def test_planned_launch_leaves_callers_arrays_unchanged(name, layout, S):
    s = diagonally_dominant_fluid(S, 32, seed=S)
    before = [arr.tobytes() for arr in (s.a, s.b, s.c, s.d)]
    run_kernel(name, s, layout=layout)
    assert [arr.tobytes() for arr in (s.a, s.b, s.c, s.d)] == before


def test_planned_launch_runs_no_kernel(monkeypatch):
    """Once the plan is characterized, a planned launch builds no
    :class:`BlockContext`: the DSL runs only to charge or to trace."""
    s = diagonally_dominant_fluid(4, 64, seed=0)
    x_first, _ = run_kernel("cr_pcr", s)          # fills the plan memo

    def refuse(self, *args, **kwargs):
        raise AssertionError("the kernel DSL ran")

    monkeypatch.setattr(BlockContext, "__init__", refuse)
    x, result = run_kernel("cr_pcr", s)
    assert _same_bits(x, x_first)
    assert result.ledger.total().steps > 0
    with pytest.raises(AssertionError, match="DSL ran"):
        traced_kernel("cr_pcr", s)


@pytest.mark.parametrize("name", ["rd", "cr_rd"])
def test_planned_overflow_is_silent_as_the_kernel(name):
    """RD overflows on dominant systems at n = 128 (§5.4).  The kernel
    raises no warning there, so neither does a planned launch; the
    library solve keeps NumPy's warnings."""
    s = diagonally_dominant_fluid(4, 128, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _ = run_kernel(name, s)
    assert not np.isfinite(x).all()
    with pytest.warns(RuntimeWarning, match="overflow"):
        solve(s.a, s.b, s.c, s.d, method=name)
