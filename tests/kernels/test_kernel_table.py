"""The kernel table and its one runner.

Every :data:`repro.kernels.api.KERNELS` entry runs through
``run_kernel``, so every launch is wrapped in one ``kernel.run`` span
with the simulated launch nested under it.
"""

import pytest

from repro import telemetry
from repro.kernels.api import KERNELS, run_kernel
from repro.numerics.generators import diagonally_dominant_fluid


@pytest.mark.parametrize("name", KERNELS)
def test_one_kernel_run_span_per_launch(name):
    s = diagonally_dominant_fluid(2, 16, seed=0)
    with telemetry.collect() as col:
        run_kernel(name, s)
    runs = [sp for sp in col.spans if sp.name == "kernel.run"]
    assert [sp.attrs["solver"] for sp in runs] == [name]
    children = [sp.name for sp in col.spans
                if sp.parent_id == runs[0].span_id]
    assert len(children) == 1
    assert children[0].startswith("sim.launch:")


@pytest.mark.parametrize("name", KERNELS)
def test_unlisted_arguments_rejected(name):
    """``run_kernel`` forwards plan arguments; ``plan_launch`` rejects
    any the kernel's entry does not list."""
    entry = KERNELS[name]
    s = diagonally_dominant_fluid(2, 16, seed=0)
    if "intermediate_size" not in entry.args:
        with pytest.raises(ValueError, match="intermediate size"):
            run_kernel(name, s, intermediate_size=8)
    if "conflict_free_timing" not in entry.args:
        with pytest.raises(ValueError, match="conflict_free_timing"):
            run_kernel(name, s, conflict_free_timing=True)
    if "interleaved" not in entry.layouts:
        with pytest.raises(ValueError, match="does not take layout"):
            run_kernel(name, s, layout="interleaved")


def test_unknown_kernel_rejected():
    s = diagonally_dominant_fluid(2, 16, seed=0)
    with pytest.raises(ValueError, match="unknown kernel"):
        run_kernel("gep", s)
