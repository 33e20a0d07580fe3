"""Golden digests of seeded telemetry exports.

Two-run bitwise tests compare a run against itself, so a change to how
span/event ids are derived (or to any other exported byte) moves both
runs the same way and passes.  These digests were recorded once and pin
the bytes themselves: CI's overload, chaos and health ``repro serve``
exports (every file the export directory holds), and the Prometheus
exposition of a quick profile run.  Together they cover the breaker,
retry, fault, hedge, lifecycle, front-end, ``sim.*``, ``pcie.*`` and
``model.*`` metric families.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.telemetry.export import prometheus_text
from repro.telemetry.profile import run_profile

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "data"
     / "telemetry_export_digests.json").read_text())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN["serve"]))
def test_serve_export_matches_golden_digests(case, tmp_path, capsys):
    golden = GOLDEN["serve"][case]
    out_dir = tmp_path / case
    assert main(golden["argv"] + ["--export-dir", str(out_dir)]) == 0
    capsys.readouterr()
    digests = {name: _sha256((out_dir / name).read_bytes())
               for name in golden["sha256"]}
    assert digests == golden["sha256"]


def test_profile_prometheus_matches_golden_digest(tmp_path):
    art = run_profile(quick=True, outdir=str(tmp_path))
    assert (_sha256(prometheus_text(art.collector).encode())
            == GOLDEN["profile_quick_prometheus"])
