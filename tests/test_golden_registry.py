"""The whole dataset registry against its committed golden record.

``tests/data/golden_registry.json`` holds, per registry dataset under the
default config, ω, the sorted clique, the nonzero counters, the funnel
stage counts and a digest of the peeling order.  A change that only
speeds the solver up must leave all of it identical.  Regenerate with
``python scripts/golden_counters.py --write`` only for a change that is
meant to move behaviour, and say why in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.datasets import names

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "golden_counters", ROOT / "scripts" / "golden_counters.py")
golden_counters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_counters)

GOLDEN = json.loads(golden_counters.DEFAULT_PATH.read_text())


def test_golden_covers_the_registry():
    assert sorted(GOLDEN) == sorted(names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dataset_matches_golden(name):
    actual = {name: golden_counters.record(name)}
    assert golden_counters.diff({name: GOLDEN[name]}, actual) == []


def test_dump_round_trips():
    assert json.loads(golden_counters.dump(GOLDEN)) == GOLDEN
    assert golden_counters.dump(GOLDEN) == \
        golden_counters.DEFAULT_PATH.read_text()
