"""Golden digests of seeded telemetry exports.

Two-run bitwise tests compare a run against itself, so a change to how
span/event ids are derived (or to any other exported byte) moves both
runs the same way and passes.  These digests were recorded once and pin
the bytes themselves: CI's overload, chaos and health ``repro serve``
exports (every file the export directory holds), and the Prometheus
exposition of a quick profile run.  Together they cover the breaker,
retry, fault, hedge, lifecycle, front-end, ``sim.*``, ``pcie.*`` and
``model.*`` metric families.

Each serve case also pins its *span tree* without ids -- one sorted
row of (name, parent name, attributes, trace present) per span -- so a
change that re-derives ids, or drops a span kind on purpose, can show
that every other span kept its place.
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


def span_tree_digest(events_jsonl: str) -> str:
    """sha256 of a JSONL export's span tree, ids left out.

    ``sim.phase:*`` rows are left out so that digests recorded on
    exports holding those spans stay comparable; no span has one as
    its parent, so dropping them moves no other row.
    """
    spans = [row for row in map(json.loads, events_jsonl.splitlines())
             if row["type"] == "span"]
    names = {s["id"]: s["name"] for s in spans}
    rows = sorted(
        json.dumps([s["name"], names.get(s["parent"]), s["attrs"],
                    s["trace"] is not None], sort_keys=True)
        for s in spans if not s["name"].startswith("sim.phase:"))
    return _sha256("\n".join(rows).encode())


@pytest.fixture(scope="module")
def export_dir(tmp_path_factory):
    """``case -> directory`` its golden ``repro serve`` run exported
    to; each case runs once per module."""
    dirs = {}

    def run(case):
        if case not in dirs:
            out = tmp_path_factory.mktemp(case)
            assert main(GOLDEN["serve"][case]["argv"]
                        + ["--export-dir", str(out)]) == 0
            dirs[case] = out
        return dirs[case]
    return run


@pytest.mark.parametrize("case", sorted(GOLDEN["serve"]))
def test_serve_export_matches_golden_digests(case, export_dir):
    golden = GOLDEN["serve"][case]
    out_dir = export_dir(case)
    digests = {name: _sha256((out_dir / name).read_bytes())
               for name in golden["sha256"]}
    assert digests == golden["sha256"]


@pytest.mark.parametrize("case", sorted(GOLDEN["serve"]))
def test_serve_span_tree_matches_golden_digest(case, export_dir):
    events = (export_dir(case) / "serve.events.jsonl").read_text()
    assert (span_tree_digest(events)
            == GOLDEN["serve"][case]["span_tree_sha256"])


def test_profile_prometheus_matches_golden_digest(tmp_path):
    art = run_profile(quick=True, outdir=str(tmp_path))
    assert (_sha256(prometheus_text(art.collector).encode())
            == GOLDEN["profile_quick_prometheus"])
