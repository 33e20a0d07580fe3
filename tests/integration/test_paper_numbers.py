"""The paper's published numbers live once, in :mod:`repro.paper`.

Reads every ``.py`` file under ``src/``, ``benchmarks/``, ``tests/``
and ``examples/`` as text: the Fig 6 totals and the Fig 9 penalty list
may appear as literals only in ``src/repro/paper.py``.  Everything
else, docstrings included, names the ``repro.paper`` entry instead.
"""

import os
import re

import pytest

from repro import paper

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
TABLE = os.path.join("src", "repro", "paper.py")

#: What may be written only in the table -> its literal text.
LITERALS = {f"Fig 6 {name} total": repr(ms)
            for name, ms in paper.TOTAL_MS.items()}
LITERALS["Fig 9 penalties"] = ", ".join(map(repr, paper.CONFLICT_PENALTY))


def as_literal(text: str) -> re.Pattern:
    """``text`` as a whole number (or number list), at any spacing."""
    return re.compile(r"(?<![\d.])"
                      + r"\s*".join(map(re.escape, text.split()))
                      + r"(?!\d)")


def sources():
    for top in ("src", "benchmarks", "tests", "examples"):
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for f in sorted(files):
                if f.endswith(".py"):
                    yield os.path.relpath(os.path.join(dirpath, f), ROOT)


def test_published_numbers_live_only_in_the_table():
    copies = []
    for path in sources():
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            text = fh.read()
        for what, literal in LITERALS.items():
            if path != TABLE and as_literal(literal).search(text):
                copies.append(f"{path}: {what} ({literal})")
    assert copies == []


def test_the_table_holds_each_literal():
    with open(os.path.join(ROOT, TABLE), encoding="utf-8") as fh:
        text = fh.read()
    for literal in LITERALS.values():
        assert as_literal(literal).search(text), literal


CR = LITERALS["Fig 6 cr total"]
FIG9 = LITERALS["Fig 9 penalties"]


@pytest.mark.parametrize("wanted, text, found", [
    (CR, f"x = {CR}", True),
    (CR, f"ms={CR})", True),
    (CR, f"1{CR}5", False),
    (FIG9, "[" + FIG9.replace(", ", ",\n    ") + "]", True),
    (FIG9, f"[{FIG9}5]", False),
])
def test_literal_matching(wanted, text, found):
    assert bool(as_literal(wanted).search(text)) == found
