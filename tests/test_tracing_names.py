"""Every name the benchmark tracer wraps exists in the package.

``perfbench/`` is not collected by the default test run, so a deletion that
breaks ``perfbench/run.py --trace 1`` would otherwise go unnoticed here.  The
tracer module is loaded read-only from its file and never installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    name = "_perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


LAYERS = load_tracing().LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_layer_functions_exist(layer):
    module = importlib.import_module(f"sqrtdom.{layer}")
    missing = [f for f in LAYERS[layer]
               if not callable(getattr(module, f, None))]
    assert not missing, f"sqrtdom.{layer} lacks {missing}"


def test_two_step_call_exists():
    from sqrtdom import kato

    # the class itself must define it; type.__call__ is always found
    assert callable(vars(kato.TwoStepResolvent).get("__call__"))


def test_cli_commands_table():
    from sqrtdom import cli

    assert cli.COMMANDS and all(callable(fn) for fn in cli.COMMANDS.values())
