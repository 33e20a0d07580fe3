"""Golden digests of the seeded overload export.

Two-run bitwise tests compare a run against itself, so a change to how
span/event ids are derived (or to any other exported byte) moves both
runs the same way and passes.  These digests were recorded once from
CI's overload export command and pin the bytes themselves.
"""

import hashlib
import json
from pathlib import Path

from repro.cli import main

GOLDEN = json.loads(
    (Path(__file__).parents[1] / "data"
     / "telemetry_export_digests.json").read_text())


def test_overload_export_matches_golden_digests(tmp_path, capsys):
    out_dir = tmp_path / "serve-overload"
    assert main(GOLDEN["argv"] + ["--export-dir", str(out_dir)]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in GOLDEN["sha256"]}
    assert digests == GOLDEN["sha256"]
