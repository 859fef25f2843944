"""Verdict check: each invocation's exit code and manifest against a reference.

``reference.json`` holds, for every invocation of every workload, the exit
code and the non-config manifest entries that ``record_reference.py``
recorded.  A value matches its reference when

    |value - ref| <= RTOL * |ref| + ATOL

for numbers, and exactly otherwise.  RTOL admits the documented shift of
the power-iteration norms (ROADMAP item 1, at most 0.3 %) and nothing
larger; ATOL only absorbs roundoff in quantities that are roundoff to begin
with (identity errors near 1e-14).  Keys listed as ``seeded`` change with
``--seed`` (random test vectors); for those only the verdict is checked.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 3e-3
ATOL = 1e-12
REFERENCE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def read_manifest(path) -> dict[str, str]:
    """Parse a ``key = value`` manifest into strings."""
    entries = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(" = ")
            if sep:
                entries[key] = value
    return entries


def headline(manifest: dict[str, str]) -> dict[str, str]:
    """The entries a verdict rests on: everything but the config echo."""
    return {k: v for k, v in manifest.items() if not k.startswith("config.")}


def _as_float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def values_match(value: str, ref: str) -> bool:
    got, want = _as_float(value), _as_float(ref)
    if got is None or want is None:
        return value == ref
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= RTOL * abs(want) + ATOL


def mismatches(expected: dict, exit_code, manifest: dict[str, str] | None) -> list[str]:
    """Every way an invocation's outcome differs from its reference entry.

    ``exit_code`` is None when the call raised; ``manifest`` is None when no
    manifest was written.  An empty list means the verdict is confirmed.
    """
    problems = []
    if exit_code != expected["exit"]:
        problems.append(f"exit code {exit_code}, expected {expected['exit']}")
    if manifest is None:
        return problems + ["no manifest written"]
    seeded = set(expected.get("seeded", ()))
    for key, ref in expected["values"].items():
        if key not in manifest:
            problems.append(f"{key} missing")
        elif key in seeded:
            continue
        elif not values_match(manifest[key], ref):
            problems.append(f"{key} = {manifest[key]}, expected {ref}")
    return problems
