"""Every name the benchmark tracer wraps exists in the package, every
public function feeds a verdict, the settable values do not regrow, only
``csvio`` formats output, only ``cli._manifest`` decides a verdict, no
verdict reads random vectors, every power route makes one eigenvalue
guard call, every Krein kernel reads one boundary solution and one
coupling denominator, a tridiagonal form has one format, with no module
on ``scipy.sparse``, the band layer takes an operator only as its
diagonals, and a traced run forms no dense operator that an untraced one
does not.

A deletion that breaks ``perfbench/run.py --trace 1`` fails here by name,
not deep inside a traced benchmark run.  The name checks load the tracer
module read-only from its file; only the traced-run test installs it, and
puts every binding back.
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


def format_uses(path):
    """Lines of one file that name csvio's cell rule (``fmt``/``_fmt``) or
    hold a string with the 17-digit format."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = getattr(node, "id", getattr(node, "attr", None))
        if (name in ("fmt", "_fmt")
                or isinstance(node, ast.Constant)
                and isinstance(node.value, str) and "17g" in node.value):
            lines.append(node.lineno)
    return lines


def test_only_csvio_formats_output():
    # csvio owns the output format: every other module passes values
    uses = {path.name: lines for path in sorted(SRC.glob("*.py"))
            if path.stem != "csvio" and (lines := format_uses(path))}
    assert not uses, f"output formatted outside csvio: {uses}"
    assert format_uses(SRC / "csvio.py")


def verdict_literals(path):
    """``(function, line)`` of each ``"pass"`` or ``"fail"`` string in one
    file, with the innermost function that holds it (``None`` outside any)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Constant)
                    and child.value in ("pass", "fail")):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_the_manifest_decides_a_verdict():
    # cli._manifest derives the verdict, failed_checks and exit code from a
    # run's named checks; no other code spells pass or fail, no suite
    # returns a bare "ok", and every subcommand ends in that one function
    stray = {path.name: found for path in sorted(SRC.glob("*.py"))
             if (found := [(owner, line)
                           for owner, line in verdict_literals(path)
                           if (path.stem, owner) != ("cli", "_manifest")])}
    assert not stray, f"verdict decided outside cli._manifest: {stray}"
    assert verdict_literals(SRC / "cli.py")
    ok_keys = {path.name: node.lineno for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Dict) and any(
                   isinstance(key, ast.Constant) and key.value == "ok"
                   for key in node.keys)}
    assert not ok_keys, f"a suite returns an 'ok' key: {ok_keys}"
    endings = {node.name: node.body[-1]
               for node in ast.parse((SRC / "cli.py").read_text()).body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("cmd_")}
    assert len(endings) == len(importlib.import_module("sqrtdom.cli").COMMANDS)
    assert all(isinstance(last, ast.Return)
               and getattr(last.value, "func", None) is not None
               and getattr(last.value.func, "id", None) == "_manifest"
               for last in endings.values()), endings


def random_draws(path):
    """``(function, line)`` of each use of ``np.random`` or ``default_rng``
    in one file, with the outermost function that holds it."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and owner is None):
                visit(child, child.name)
                continue
            name = getattr(child, "id", getattr(child, "attr", None))
            if name in ("random", "default_rng"):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(path.read_text()), None)
    return found


def test_no_random_draws_in_a_verdict():
    # a bound is judged at its worst case, not on random vectors: only
    # trace-check's seeded 6 x 6 case and the power iteration's fixed start
    # vector draw random numbers
    draws = {(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             for owner, _ in random_draws(path)}
    assert draws == {("checks", "trace_suite"), ("matfun", "power_start")}


def calls_of(path, name):
    """The caller of each call of ``name`` (a bare name or an attribute) in
    one file: the innermost function that holds it, ``Class.method`` for a
    method."""
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, ast.ClassDef):
                inner = child.name
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if owner is None else (
                    f"{owner}.{child.name}")
            elif isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    callers.append(owner)
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return callers


def test_one_eigenvalue_guard_per_route():
    # matfun._require_shifted is the one eigenvalue guard: each route of
    # domains.matrix_power (binomial, gauge, Schur) and the shifted roots of
    # kato._InvSqrtShifted.norms call it once, so the error class follows
    # the eigenvalues.  The cut-only guard is its last step, and the whole
    # guard of the unshifted roots; no dense eigh powers anything
    def callers(name):
        return sorted((path.stem, owner) for path in sorted(SRC.glob("*.py"))
                      for owner in calls_of(path, name))

    assert callers("_require_shifted") == [
        ("domains", "_gauge_power"), ("domains", "_toeplitz_power"),
        ("domains", "matrix_power"), ("kato", "_InvSqrtShifted.norms")]
    assert callers("_require_off_cut") == [
        ("matfun", "_log_sym_det"), ("matfun", "_require_shifted"),
        ("matfun", "sqrt_db")]
    assert not calls_of(SRC / "domains.py", "eigh")


def test_one_boundary_solution_and_one_denominator():
    # krein writes Krein's formula once: the boundary solution u2 and the
    # coupling denominator d are each one function of the root sqrt(-z),
    # and every kernel is the rank-one term u2(x) u2(x') / d built from
    # them; the three earlier derivations of each are gone
    def callers(name):
        return sorted((path.stem, owner) for path in sorted(SRC.glob("*.py"))
                      for owner in calls_of(path, name))

    assert callers("_boundary_solution") == [
        ("krein", "_t_kernel"), ("krein", "_t_kernel"),
        ("krein", "sqrt_kernel"), ("krein", "u2_closed_form")]
    assert callers("_denominator") == [
        ("krein", "_t_kernel"), ("krein", "d_theta"), ("krein", "sqrt_kernel")]
    text = (SRC / "krein.py").read_text()
    gone = [name for name in ("_stable_cot", "_u2_slope_at_a", "_t_integral")
            if name in text]
    assert not gone, f"krein still names {gone}"


def test_krein_correction_only_through_krein():
    # Krein's rank-one term is formed in one place: the guarded factors
    # come from krein._coupling and are subtracted in place, one row block
    # of outer product at a time, by krein._subtract_coupling, which
    # krein_resolvent and the ladder's row blocks both call; checks forms
    # no outer product of its own
    def callers(name):
        return sorted((path.stem, owner) for path in sorted(SRC.glob("*.py"))
                      for owner in calls_of(path, name))

    for name in ("_coupling", "_subtract_coupling"):
        assert callers(name) == [("checks", "_krein_level.max_error"),
                                 ("krein", "krein_resolvent")], name
    assert callers("outer") == [("krein", "_subtract_coupling"),
                                ("krein", "sqrt_kernel"),
                                ("krein", "sqrt_kernel")]
    assert not calls_of(SRC / "checks.py", "krein_resolvent")


# defaulted parameters + dataclass init fields + cli.DEFAULTS keys
SETTABLE_CEILING = 78


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


def assembly_calls(path):
    """``(class, function)`` of each ``assemble_forms`` call in one file and
    the line of each ``add.at`` scatter, with the innermost class and
    function that hold them."""
    calls, scatters = [], []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, ast.ClassDef):
                inner = (child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = (owner[0], child.name)
            elif isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == (
                        "assemble_forms"):
                    calls.append(owner)
            elif (isinstance(child, ast.Attribute) and child.attr == "at"
                  and getattr(child.value, "attr", None) == "add"):
                scatters.append(child.lineno)
            visit(child, inner)

    visit(ast.parse(path.read_text()), (None, None))
    return calls, scatters


def test_one_assembly_per_problem():
    # the forms, the unit-diffusion reference and the trace Gram come from
    # one cell sum: no scatter anywhere, and the one assembly of a problem
    # is the one its record makes
    calls, scatters = {}, {}
    for path in sorted(SRC.glob("*.py")):
        found, lines = assembly_calls(path)
        if found:
            calls[path.stem] = found
        if lines:
            scatters[path.name] = lines
    assert not scatters, f"np.add.at scatters: {scatters}"
    assert calls == {"problems": [("Problem", "__post_init__")]}, calls


def sparse_uses(path):
    """Lines of one file that import ``scipy.sparse`` or name it as
    ``scipy.sparse``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "sparse"
              and getattr(node.value, "id", None) == "scipy"):
            names = ["scipy.sparse"]
        else:
            continue
        if any(name.split(".")[:2] == ["scipy", "sparse"] for name in names):
            lines.append(node.lineno)
    return lines


def test_one_tridiagonal_format():
    # a P1 form is its diagonals (lo, d, up) from the cell sum to the dense
    # matrix, and so are the factored pair's products; every band product
    # is one slice product per diagonal, so no module uses scipy.sparse
    imports = {path.name: lines for path in sorted(SRC.glob("*.py"))
               if (lines := sparse_uses(path))}
    assert not imports, f"scipy.sparse imported: {imports}"


def tuple_tests(path):
    """The owner of each ``isinstance(x, tuple)`` in one file, the bare
    name ``tuple`` its second argument: the innermost function that holds
    it, ``Class.method`` for a method."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, ast.ClassDef):
                inner = child.name
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if owner is None else (
                    f"{owner}.{child.name}")
            elif (isinstance(child, ast.Call)
                  and getattr(child.func, "id", None) == "isinstance"
                  and len(child.args) == 2
                  and getattr(child.args[1], "id", None) == "tuple"):
                owners.append(owner)
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return owners


def test_one_operator_format():
    # the band layer takes an operator as its diagonals (lo, d, up) only,
    # the power dispatch included: a matrix is still read by the Hermitian
    # test and the root check, and a factor of a pair is a tuple beside a
    # matrix or a vector; a problem keeps no dense operator, base or
    # reference
    from sqrtdom.problems import Problem

    found = {(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             for owner in tuple_tests(path)}
    assert found == {("matfun", "is_hermitian"), ("matfun", "_require_root"),
                     ("kato", "_times")}, sorted(found)
    kept = {"H", "base_operator", "reference_operator"} & set(vars(Problem))
    assert not kept, f"Problem still defines {sorted(kept)}"


@pytest.mark.parametrize("argv", [
    ["decay-study", "--problem", "constant_qrs", "--n", "96"],
    ["verify-kato", "--problem", "sawtooth", "--n", "150"]],
    ids=["decay-study", "verify-kato"])
def test_traced_run_forms_no_dense_operator(argv, tmp_path):
    # the tracer reads the size of each call's arguments, and a problem has
    # no dense operator for it to form: a traced run does the work of an
    # untraced one, which forms none
    from tracing import Tracer

    from sqrtdom import cli

    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main([*argv, "--outdir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert f"cli.{argv[0]}" in names
    assert "assembly.orthonormalize" not in names
