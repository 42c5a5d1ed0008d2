#!/usr/bin/env python
"""Write or check the golden record of every registry dataset.

For each registry dataset, solved under the default ``LazyMCConfig()``,
the record holds ω, the sorted clique, the nonzero ``Counters``, the
``FilterFunnel`` stage counts and a sha256 of ``peeling_order(g)``'s
``(core, order)``.  A change that is meant to leave behaviour alone (a
faster set representation, a vectorized loop) must leave every record
byte-identical; ``--check`` names each dataset whose record moved.

Usage:  python scripts/golden_counters.py --write|--check [path]

The default path is ``tests/data/golden_registry.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro import LazyMCConfig, lazymc  # noqa: E402
from repro.core.filtering import FilterFunnel  # noqa: E402
from repro.datasets import load, names  # noqa: E402
from repro.graph.kcore import peeling_order  # noqa: E402

DEFAULT_PATH = ROOT / "tests" / "data" / "golden_registry.json"
FUNNEL_STAGES = [f.name for f in dataclasses.fields(FilterFunnel)
                 if f.name != "density_work"]


def peel_digest(core: np.ndarray, order: np.ndarray) -> str:
    """sha256 over the little-endian int64 bytes of ``core`` then ``order``."""
    h = hashlib.sha256()
    h.update(np.asarray(core, dtype="<i8").tobytes())
    h.update(np.asarray(order, dtype="<i8").tobytes())
    return h.hexdigest()


def record(name: str) -> dict:
    """The golden record of one registry dataset."""
    graph = load(name)
    result = lazymc(graph, LazyMCConfig())
    core, order = peeling_order(graph)
    return {
        "omega": result.omega,
        "clique": sorted(int(v) for v in result.clique),
        "counters": {k: v for k, v in result.counters.as_dict().items() if v},
        "funnel": {k: getattr(result.funnel, k) for k in FUNNEL_STAGES},
        "peel_sha256": peel_digest(core, order),
        "peel_dtypes": [str(core.dtype), str(order.dtype)],
    }


def compute() -> dict:
    """Golden records of the whole registry, keyed by dataset name."""
    return {name: record(name) for name in names()}


def dump(records: dict) -> str:
    """One dataset per line, keys sorted, so a diff names the dataset."""
    rows = [f" {json.dumps(name)}: {json.dumps(records[name], sort_keys=True)}"
            for name in sorted(records)]
    return "{\n" + ",\n".join(rows) + "\n}\n"


def diff(expected: dict, actual: dict) -> list[str]:
    """One line per dataset (and field) whose record differs."""
    lines = []
    for name in sorted(set(expected) | set(actual)):
        if name not in actual:
            lines.append(f"{name}: missing from the registry")
        elif name not in expected:
            lines.append(f"{name}: no golden record")
        else:
            for key in sorted(set(expected[name]) | set(actual[name])):
                want = expected[name].get(key)
                got = actual[name].get(key)
                if want != got:
                    lines.append(f"{name}.{key}: golden {want!r}, got {got!r}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="recompute and overwrite the golden file")
    mode.add_argument("--check", action="store_true",
                      help="recompute and compare; exit 1 on any difference")
    parser.add_argument("path", nargs="?", type=Path, default=DEFAULT_PATH)
    args = parser.parse_args(argv)

    actual = compute()
    if args.write:
        args.path.parent.mkdir(parents=True, exist_ok=True)
        args.path.write_text(dump(actual))
        print(f"wrote {len(actual)} records to {args.path}")
        return 0
    expected = json.loads(args.path.read_text())
    problems = diff(expected, actual)
    for line in problems:
        print(line)
    if problems:
        print(f"golden check FAILED: {len(problems)} difference(s)")
        return 1
    print(f"golden check ok: {len(actual)} datasets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
