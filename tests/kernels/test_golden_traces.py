"""Golden-trace regression pins.

Every shipped kernel's architectural counters at a fixed configuration
are stored in ``golden_traces_n64.json``.  Any change to an access
pattern, op count, or phase structure -- intentional or not -- fails
here with a counter-level diff.  If the change is intentional,
regenerate the fixture (see the snippet in this file's docstring
history / DESIGN.md) and re-run the calibration sanity tests.
"""

import json
import os
import warnings

import pytest

from repro.gpusim.serialize import ledger_from_dict, ledgers_equal
from repro.kernels.api import KERNELS, run_kernel
from repro.numerics.generators import close_values, diagonally_dominant_fluid

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_traces_n64.json")


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


def _run(name):
    """Two n=64 systems per block kernel (hybrids at m=16); per-thread
    Thomas fills one 32-thread block with 32 systems of 32."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if name == "thomas":
            s = diagonally_dominant_fluid(32, 32, seed=0)
        elif "rd" in name:
            s = close_values(2, 64, seed=0)
        else:
            s = diagonally_dominant_fluid(2, 64, seed=0)
        args = ({"intermediate_size": 16}
                if "intermediate_size" in KERNELS[name].args else {})
        _x, res = run_kernel(name, s, **args)
    return res


@pytest.mark.parametrize("name", KERNELS)
def test_trace_pinned(golden, name):
    res = _run(name)
    expected = ledger_from_dict(golden[name]["ledger"])
    diffs = ledgers_equal(res.ledger, expected, rel_tol=1e-12)
    assert not diffs, f"{name} trace drifted:\n" + "\n".join(diffs[:20])


@pytest.mark.parametrize("name", KERNELS)
def test_launch_config_pinned(golden, name):
    res = _run(name)
    g = golden[name]
    assert res.threads_per_block == g["threads_per_block"], name
    assert res.shared_bytes == g["shared_bytes"], name


def test_fixture_covers_all_kernels(golden):
    assert set(golden) == set(KERNELS)
