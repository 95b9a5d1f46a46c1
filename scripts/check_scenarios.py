#!/usr/bin/env python
"""Scenario-pack smoke: every family against its golden digest.

Builds the pinned (scale, seed) world, runs every scenario family in
``repro.scenarios.FAMILIES`` on it, and fails unless each rendered
figure hashes to the digest committed in
``tests/goldens/scenario_digests.json``.  This is the
``make scenarios-smoke`` CI gate: it pins the families' output
byte-for-byte.

Usage::

    PYTHONPATH=src python scripts/check_scenarios.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

GOLDENS_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "goldens"
    / "scenario_digests.json"
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)

    from repro.scenario.build import _build_world
    from repro.scenarios import FAMILIES

    golden = json.loads(GOLDENS_PATH.read_text())["entry"]
    scale, seed = golden["scale"], golden["seed"]
    expected: dict[str, str] = golden["digests"]

    missing = set(FAMILIES) ^ set(expected)
    if missing:
        print(
            f"SCENARIO SMOKE FAIL: goldens and FAMILIES disagree on "
            f"{sorted(missing)} — rerun scripts/update_goldens.py",
            file=sys.stderr,
        )
        return 1

    failures = 0
    start = time.perf_counter()
    world = _build_world(scale, seed, None, None, None, None)
    for name, family in FAMILIES.items():
        text = family.render(family.run(world))
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != expected[name]:
            failures += 1
            print(
                f"SCENARIO SMOKE FAIL {name}: digest {digest[:16]}… != "
                f"golden {expected[name][:16]}…",
                file=sys.stderr,
            )
    print(
        f"{len(FAMILIES)} families in {time.perf_counter() - start:.2f}s",
        file=sys.stderr,
    )

    if failures:
        return 1
    print(
        f"scenario smoke OK: {len(FAMILIES)} families golden-identical "
        f"at scale {scale:g} seed {seed}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
