"""Every name the benchmark tracer wraps exists in the package, every
public function feeds a verdict, and the settable values do not regrow.

A deletion that breaks ``perfbench/run.py --trace 1`` fails here by name,
not deep inside a traced benchmark run.  The tracer module is loaded
read-only from its file and never installed.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "sqrtdom"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


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


def referenced_names(path):
    """Identifiers the code of one file uses; docstrings and comments do not
    count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_public_functions_feed_a_verdict():
    # a public function is reached by another module of the package (the
    # CLI among them), by the tracer's layers or by an acceptance criterion;
    # one that only its own tests call is dead weight
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    uses = {stem: referenced_names(SRC / f"{stem}.py") for stem in modules}
    acceptance = referenced_names(ACCEPTANCE)
    unreached = {}
    for stem in modules:
        module = importlib.import_module(f"sqrtdom.{stem}")
        reached = set(LAYERS.get(stem, ())) | acceptance
        for other in modules:
            if other != stem:
                reached |= uses[other]
        names = [name for name in getattr(module, "__all__", ())
                 if inspect.isfunction(getattr(module, name))
                 and name not in reached]
        if names:
            unreached[stem] = names
    assert not unreached, f"public functions only tests reach: {unreached}"


# defaulted parameters + dataclass init fields + cli.DEFAULTS keys
SETTABLE_CEILING = 80


def is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def is_init_false(value):
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and getattr(kw.value, "value", None) is False
        for kw in value.keywords)


def settable_values():
    """Counts, by AST over the package, of what a caller or user can set."""
    counts = {"defaulted_parameters": 0, "dataclass_fields": 0,
              "config_keys": 0}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                counts["defaulted_parameters"] += len(args.defaults) + sum(
                    d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    map(is_dataclass_decorator, node.decorator_list)):
                counts["dataclass_fields"] += sum(
                    isinstance(stmt, ast.AnnAssign)
                    and not is_init_false(stmt.value) for stmt in node.body)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "DEFAULTS"
                    for t in node.targets):
                counts["config_keys"] += len(node.value.keys)
    return counts


def test_settable_values_do_not_regrow():
    # every default, field and configuration key is a value someone can set
    # and something must honour; new ones have to pay for themselves
    counts = settable_values()
    assert counts["config_keys"] == len(importlib.import_module(
        "sqrtdom.cli").DEFAULTS)
    assert sum(counts.values()) <= SETTABLE_CEILING, counts
