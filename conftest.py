"""Pytest setup for the whole suite: BLAS runs one thread, as in the
benchmark (``perfbench/run.py``), pinned here before numpy loads.  On a
small machine the tests' many small dense factorizations run faster that
way than with the library's default thread count."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perfbench"))

import run  # noqa: E402

run.pin_threads()
