"""Command-line entry point: configuration, experiment orchestration, reports.

Every subcommand writes its CSV artifacts plus a ``manifest.txt`` with the
echoed configuration, seed, tolerances and verdicts, and ends in
``_manifest``, which derives the verdict, ``failed_checks`` and exit code
from one mapping of check names to ``True``, ``False`` or ``None``
(reported only: hypothesis-check's ``numerical-range-sector`` and every
check of ``assemble`` and ``kernel-dump``, which write no verdict).
Identical configuration and seed produce byte-identical output files.  Exit
codes: 0 on success, 1 on a failed check or a guard that rejected the
input, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import csvio
from .assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                       _dense, build_mesh, w12_norm_matrix)
from .checks import (TOL_K0, TOL_KATO, TOL_ORDER, TOL_PLATEAU, TOL_SLACK,
                     TOL_SLOPE, TOL_TRACE, decay_suite, failed,
                     form_bound_suite, kato_checks, krein_suite, trace_suite)
from .domains import refinement_study
from .kato import (PATHS, _InvSqrtShifted, build_factorization,
                   decay_profile, verify_identity)
from .krein import (SharedSpectrumError, green_kernel_dirichlet,
                    krein_resolvent, sqrt_kernel, u2_closed_form, d_theta)
from .matfun import (ResolventError, ShiftBelowSpectrumError,
                     SpectrumOnCutError, resolvent)
from .problems import (FAMILY_NAMES, Problem, build_coefficients,
                       lions_operator)
from .sectorial import check_m_accretive, numerical_range_hull, safe_shift


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "problem": "constant_qrs",
    "coeff_p": None, "coeff_q": None, "coeff_r": None, "coeff_s": None,
    "interval": "finite", "a": 0.0, "b": 1.0, "radius": 20.0,
    "n": 64, "n_list": None,
    "theta_a": "dirichlet", "theta_b": "dirichlet",
    "E": None, "E_grid": None,
    "alpha": 0.5,
    "seed": 1234,
    "growth_threshold": None,
    "outdir": "out",
}

# kappa-study's names for two of its problems, which perfbench's dichotomy
# workload runs: each stands for a family and the option values it implies
_KAPPA_ALIASES = {
    "complex_full": {"problem": "complex_constant"},
    "robin_complex": {"problem": "mixed_sign", "theta_a": "1+0.5i"},
}
# the keys each subcommand reads besides seed and outdir, which every run
# reads: a key set off its default that the run never reads is refused
_COEFF_KEYS = ("coeff_p", "coeff_q", "coeff_r", "coeff_s")
_PROBLEM_KEYS = ("problem", *_COEFF_KEYS, "interval", "n", "theta_a",
                 "theta_b")
_READS = {
    "assemble": (*_PROBLEM_KEYS, "E"),
    "verify-kato": _PROBLEM_KEYS,
    # the kernels are closed forms for -u'' on [a, b], Dirichlet at b, and
    # verify-krein sweeps its own left ends
    "verify-krein": ("a", "b", "n", "n_list", "E", "E_grid"),
    "kernel-dump": ("a", "b", "n", "E", "theta_a"),
    # each level's n comes from n_list
    "kappa-study": (*(key for key in _PROBLEM_KEYS if key != "n"),
                    "n_list", "E", "alpha", "growth_threshold"),
    "decay-study": (*_PROBLEM_KEYS, "E_grid"),
    "hypothesis-check": _PROBLEM_KEYS,
    "trace-check": (),
}
# the lions control is fixed on (0, 1): no interval, coefficient or end
_LIONS_READS = ("problem", "n_list", "E", "alpha", "growth_threshold")
# the interval keys each kind of interval reads: a finite one a and b, a
# half line a and radius, the full line radius
_INTERVAL_KEYS = {"finite": ("a", "b"), "half_line": ("a", "radius"),
                  "full_line": ("radius",)}


def _geometric_grid(text: str) -> list[float]:
    parts = [float(v) for v in text.split(",")]
    if not (len(parts) == 3 and parts[0] > 0 and parts[1] > 1
            and parts[2] >= 2 and parts[2].is_integer()):
        raise ValueError("needs 'start,factor,count' with start > 0, "
                         "factor > 1 and an integer count >= 2")
    start, factor, count = parts
    if (math.log(start) + (count - 1) * math.log(factor)
            > math.log(sys.float_info.max)):
        raise ValueError(f"its last shift {start:g} * {factor:g}^"
                         f"{count - 1:g} overflows")
    return [start * factor**k for k in range(int(count))]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"needs a finite number, got {text!r}")
    return value


# how each non-string value is read from its flag or file text
_READERS = {
    "a": _finite, "b": _finite, "radius": _finite, "E": _finite,
    "alpha": _finite, "growth_threshold": _finite, "n": int, "seed": int,
    "n_list": lambda text: [int(v) for v in text.split(",") if v],
    "E_grid": _geometric_grid,
}


def parse_theta(text: str) -> BoundaryCondition:
    text = text.strip().lower()
    if text == "dirichlet":
        return BoundaryCondition.dirichlet()
    if text == "neumann":
        return BoundaryCondition.neumann()
    try:
        theta = complex(text.replace("i", "j"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse boundary parameter {text!r}") from exc
    try:
        return BoundaryCondition(theta)
    except ValueError as exc:  # parsed, but outside the strip
        raise ConfigError(f"{text!r}: {exc}") from exc


def read_config_file(path: str) -> dict:
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def load_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(read_config_file(args.config))
    cfg.update({key: val for key, val in vars(args).items()
                if key in DEFAULTS and val is not None})
    for key, read in _READERS.items():
        if isinstance(cfg[key], str):
            try:
                cfg[key] = read(cfg[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    names = FAMILY_NAMES
    if args.command == "kappa-study":
        names += (*_KAPPA_ALIASES, "lions")
    if cfg["problem"] not in names:
        raise ConfigError(f"{args.command} needs a problem in {names}, "
                          f"got {cfg['problem']!r}")
    for key in ("theta_a", "theta_b"):
        parse_theta(cfg[key])  # cfg keeps the text the manifest echoes

    def meaning(key, value):  # boundary texts compare as conditions
        return parse_theta(value) if key in ("theta_a", "theta_b") else value

    for key, value in _KAPPA_ALIASES.get(cfg["problem"], {}).items():
        # an alias never silently overrides a value that was set
        if key != "problem" and meaning(key, cfg[key]) not in (
                meaning(key, DEFAULTS[key]), meaning(key, value)):
            raise ConfigError(f"{cfg['problem']} sets {key} = {value}, "
                              f"got {cfg[key]!r}")
    kind = cfg["interval"]
    run, reads = args.command, _READS[args.command]
    if cfg["problem"] == "lions":
        run, reads = "the lions control, fixed on (0, 1),", _LIONS_READS
    elif "interval" in reads:
        reads += _INTERVAL_KEYS.get(kind, ())
    unread = [key for key in DEFAULTS
              if key not in (*reads, "seed", "outdir")
              and meaning(key, cfg[key]) != meaning(key, DEFAULTS[key])]
    if "interval" in reads and {"a", "b", "radius"} & set(unread):
        run += f" on a {kind} interval"
    if unread:
        raise ConfigError(f"{run} never reads {', '.join(unread)}; set none "
                          f"of them")
    try:
        interval_from(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg["E"] is not None and cfg["E"] <= 0:
        raise ConfigError("E must be positive")
    if cfg["n"] < 2:
        raise ConfigError("n must be at least 2")
    levels = cfg["n_list"]
    if levels is not None and (len(levels) < 2 or min(levels) < 2
                               or len(set(levels)) < len(levels)):
        raise ConfigError("n_list needs at least two distinct entries, each "
                          "at least 2")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be non-negative")
    if not 0.0 < cfg["alpha"] < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    if cfg["growth_threshold"] is not None and cfg["growth_threshold"] < 1:
        # growth is at least 1, so a lower ceiling could only read divergent
        raise ConfigError("growth_threshold must be at least 1")
    return cfg


def interval_from(cfg: dict) -> IntervalSpec:
    return IntervalSpec(kind=cfg["interval"], a=cfg["a"], b=cfg["b"],
                        truncation_radius=cfg["radius"])


def coefficients_from(cfg: dict, mesh) -> CoefficientSet:
    paths = {k: cfg[f"coeff_{k}"] for k in "pqrs"}
    if not any(paths.values()):
        return build_coefficients(cfg["problem"], mesh)

    def sampled(path, default):
        if path is None:
            return np.full(mesh.n_cells, default, dtype=complex)
        x, vals = csvio.read_coefficient(path)
        mids = mesh.midpoints
        return (np.interp(mids, x, vals.real)
                + 1j * np.interp(mids, x, vals.imag))

    try:
        return CoefficientSet(p=sampled(paths["p"], 1.0),
                              q=sampled(paths["q"], 0.0),
                              r=sampled(paths["r"], 0.0),
                              s=sampled(paths["s"], 0.0))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"coefficient file: {exc}") from exc


def problem_from(cfg: dict) -> Problem:
    interval = interval_from(cfg)
    keys = " ".join(f"--{key} {cfg[key]!r}"
                    for key in _INTERVAL_KEYS[cfg["interval"]])
    too_short = (f"a {cfg['interval']} interval with {keys} is too short "
                 f"for --n {cfg['n']} cells")
    try:
        mesh = build_mesh(interval, cfg["n"])
    except ValueError as exc:  # nodes a rounding step apart coincide
        raise ConfigError(f"{too_short}: {exc}") from exc
    coeffs = coefficients_from(cfg, mesh)
    prob = Problem(interval, mesh, coeffs, parse_theta(cfg["theta_a"]),
                   parse_theta(cfg["theta_b"]))
    # the scaling 1/h of a cell too short for double precision overflows,
    # and the mass of a subnormal half cell rounds to zero
    try:
        finite = all(np.all(np.isfinite(diagonal)) for diagonal in
                     (*prob.diagonals(), *prob.reference_diagonals()))
    except ValueError as exc:
        raise ConfigError(f"{too_short}: {exc}") from exc
    if not finite:
        raise ConfigError(f"{too_short}: its operator overflows")
    return prob


def _manifest(outdir: Path, cfg: dict, command: str, checks: dict,
              extra: dict) -> int:
    """Write one run's manifest and return its exit code, both from
    ``checks`` (name to passed, or ``None`` if reported only): a run that
    judges a check closes with ``verdict`` and ``failed_checks``."""
    entries = {"command": command,
               **{f"config.{key}": cfg[key] for key in sorted(DEFAULTS)},
               "checks": list(checks), **extra}
    bad = failed(checks)
    if any(ok is not None for ok in checks.values()):
        entries.setdefault("verdict", "fail" if bad else "pass")
        entries["failed_checks"] = bad or "none"
    csvio.write_manifest(outdir / "manifest.txt", entries)
    return 1 if bad else 0


# --------------------------------------------------------------------------
# subcommands


def cmd_assemble(cfg: dict, outdir: Path) -> int:
    prob = problem_from(cfg)
    forms = prob.forms
    for name in ("M", "K0", "K1", "K2", "K3", "Bdry"):
        csvio.write_matrix(outdir / f"{name}.csv",
                           _dense(getattr(forms, name)))
    csvio.write_matrix(outdir / "operator.csv", prob.H)
    csvio.write_rows(outdir / "mesh.csv", "i,x", enumerate(prob.mesh.nodes))
    GE = w12_norm_matrix(prob.mesh, prob.bc_left, prob.bc_right,
                         cfg["E"] or 1.0)
    csvio.write_matrix(outdir / "sobolev_gram.csv", GE)
    return _manifest(outdir, cfg, "assemble",
                     {"form-matrices": None, "operator-matrix": None},
                     {"n_dof": forms.n_dof,
                      "coefficient_hash": prob.coeffs.digest(),
                      "mass_treatment": "lumped"})


def cmd_verify_kato(cfg: dict, outdir: Path) -> int:
    rep = verify_identity(problem_from(cfg))
    csvio.write_rows(outdir / "kato_errors.csv", "z_re,z_im,path,rel_error",
                     [(r["z"].real, r["z"].imag, path, r[path])
                      for path in PATHS for r in rep["records"]])
    return _manifest(outdir, cfg, "verify-kato", kato_checks(rep),
                     {"tolerance": TOL_KATO,
                      "max_identity_error": rep["max_error"]["full_triple"],
                      "max_two_step_error": rep["max_error"]["two_step"],
                      "excluded_points": len(rep["excluded"])})


@contextmanager
def _krein_guards(cfg: dict, E: float):
    """Report Krein's guards on ``[a, b]`` at the shift ``z = -E`` as
    configuration errors: a shared spectrum names ``--E``, and a coupling
    denominator or square-root quadrature that is not finite (``sqrt(E)
    (b - a)`` or the mesh width below double precision) the interval."""
    try:
        yield
    except SharedSpectrumError as exc:
        raise ConfigError(f"--E {E:g}: z = {-E:g} lies in the spectra of "
                          f"both realizations ({exc}); change --E") from exc
    except FloatingPointError as exc:
        raise ConfigError(f"a finite interval with --a {cfg['a']!r} --b "
                          f"{cfg['b']!r} is too short: {exc}") from exc


def cmd_verify_krein(cfg: dict, outdir: Path) -> int:
    z = -(cfg["E"] or 5.0)
    try:
        with _krein_guards(cfg, -z):
            suite = krein_suite(cfg["a"], cfg["b"], z,
                                cfg["n_list"] or [64, 128, 256], cfg["n"],
                                cfg["E"] or 25.0,
                                cfg["E_grid"] or [25.0, 100.0])
    except ResolventError as exc:
        # z = -E lies left of the spectrum, so only the shift's size can
        # make the finite-element resolvent fail
        raise ConfigError(f"--E {-z:g}: the finite-element resolvent at "
                          f"z = {z:g} cannot be represented ({exc}); "
                          f"lower --E") from exc
    csvio.write_rows(outdir / "krein_errors.csv", "theta,n,max_error",
                     suite["errors"])
    csvio.write_rows(outdir / "bessel_bound.csv", "E,lhs,rhs",
                     [(E, rec["lhs"], rec["rhs"])
                      for E, rec in suite["bessel"]])
    return _manifest(outdir, cfg, "verify-krein", suite["checks"],
                     {"min_observed_order": suite["min_order"],
                      "boundary_row_max": suite["boundary_row"],
                      "min_bessel_slack": suite["min_slack"],
                      "k0_two_method_diff": suite["k0_diff"],
                      "tolerance_order": TOL_ORDER, "tolerance_k0": TOL_K0})


def cmd_kappa_study(cfg: dict, outdir: Path) -> int:
    control = cfg["problem"] == "lions"
    level = {**cfg, **_KAPPA_ALIASES.get(cfg["problem"], {})}
    E = cfg["E"] or 1.0
    try:
        report = refinement_study(
            lions_operator if control
            else lambda n: problem_from({**level, "n": n}),
            cfg["n_list"] or [32, 64, 128, 256], E, cfg["alpha"],
            cfg["growth_threshold"])
    except ShiftBelowSpectrumError as exc:
        raise ConfigError(f"--E {E:g} does not shift the operator above "
                          f"zero: {exc}; raise --E") from exc
    except SpectrumOnCutError as exc:
        # above the shift guard, a root fails its residual rule when the
        # powers of H + E are too large for their norms to be represented
        raise ConfigError(f"--E {E:g}: the roots of the shifted operator "
                          f"cannot be checked ({exc}); lower --E") from exc
    rows = [(r["n"], r["E"], r["alpha"], r["min_ratio"], r["max_ratio"],
             r["kappa"], report.verdict) for r in report.rows]
    csvio.write_rows(outdir / "kappa.csv",
                     "n,E,alpha,min_ratio,max_ratio,kappa,verdict", rows)
    # the control diverges from the critical power on; every problem that
    # problem_from builds keeps its ratio bounded, and the verdict says which
    expected = "divergent" if control and cfg["alpha"] >= 0.5 else "bounded"
    return _manifest(outdir, cfg, "kappa-study",
                     {"sqrt-domain-equivalence": report.verdict == expected},
                     {"growth": report.growth,
                      "increment_ratio": report.increment_ratio,
                      "kappa_extrapolated": report.kappa_extrapolated,
                      "threshold": report.threshold, "verdict": report.verdict,
                      **{f"calibration.{k}": v
                         for k, v in report.calibration.items()}})


def cmd_decay_study(cfg: dict, outdir: Path) -> int:
    """``decay_suite`` over ``--E-grid``, by default nine geometric shifts
    from 1e2 to ``min(1e6, 1/h^2)``: one CSV per factor pair, one for the
    multipliers, and the slopes and verdict in the manifest."""
    prob = problem_from(cfg)
    # shifts beyond the mesh resolution scale cannot carry the continuum
    # plateau, so the default grid stops at 1/h^2
    top = min(1e6, 1.0 / prob.mesh.h ** 2)
    if cfg["E_grid"] is None and top <= 1e2:
        raise ConfigError(f"the default shift grid runs from 1e2 to 1/h^2 = "
                          f"{top:g}; refine the mesh or give --E-grid")
    E_grid = cfg["E_grid"] or np.geomspace(1e2, top, 9)
    # a grid that starts below the spectrum fails the shift rule, real
    # eigenvalues too; a failed root is no configuration error
    try:
        suite = decay_suite(prob, E_grid)
    except ShiftBelowSpectrumError as exc:
        raise ConfigError(f"--E-grid from {min(E_grid):g} does not shift "
                          f"the operator above zero: {exc}; raise --E-grid"
                          ) from exc
    profiles, multipliers = suite["profiles"], suite["multipliers"]
    for variant, prof in profiles.items():
        csvio.write_rows(outdir / f"decay_{variant}.csv",
                         "E,normK,normA,normB",
                         zip(prof["E"], prof["normK"], prof["normA"],
                             prof["normB"]))
    csvio.write_rows(outdir / "multiplier_decay.csv", "phi,E,norm",
                     [(name, E, v) for name, rec in multipliers.items()
                      for E, v in zip(rec["E"], rec["norms"])])
    return _manifest(outdir, cfg, "decay-study", suite["checks"], {
        "slope_qr_pair": profiles["qr_pair"]["slope"],
        "slope_s_pair": profiles["s_pair"]["slope"],
        "monotone_qr_pair": profiles["qr_pair"]["monotone"],
        "monotone_s_pair": profiles["s_pair"]["monotone"],
        "plateau_full_triple": profiles["full_triple"]["plateau_ratio"],
        "tolerance_slope": TOL_SLOPE, "tolerance_plateau": TOL_PLATEAU,
        **{f"slope_multiplier_{name}": rec["slope"]
           for name, rec in multipliers.items()},
        "base_operator_path": suite["base_path"]})


def cmd_kernel_dump(cfg: dict, outdir: Path) -> int:
    mesh = build_mesh(interval_from(cfg), cfg["n"])
    E = cfg["E"] or 25.0
    z = -E
    th = parse_theta(cfg["theta_a"])
    X, Xp = np.meshgrid(mesh.nodes, mesh.nodes, indexing="ij")
    # every table is computed before any is written, so a guard that
    # refuses the input leaves no CSV
    tables = {"green_dirichlet": green_kernel_dirichlet(z, X, Xp, cfg["a"],
                                                        cfg["b"])}
    checks = {"green-kernel": None}
    extra = {"E": E, "n": cfg["n"]}
    if not th.is_dirichlet:
        with _krein_guards(cfg, E):
            tables["green_robin"] = krein_resolvent(
                tables["green_dirichlet"], z, th, mesh)
            tables["sqrt_kernel"] = sqrt_kernel(E, th, mesh)
        checks |= dict.fromkeys(("rank-one-corrected-green", "sqrt-kernel"))
        extra["coupling_denominator"] = abs(d_theta(z, th, cfg["a"], cfg["b"]))
        extra["u2_left_value"] = abs(u2_closed_form(z, cfg["a"], cfg["a"],
                                                    cfg["b"]))
    for name, table in tables.items():
        csvio.write_kernel(outdir / f"{name}.csv", mesh.nodes, table)
    return _manifest(outdir, cfg, "kernel-dump", checks, extra)


def cmd_hypothesis_check(cfg: dict, outdir: Path) -> int:
    """The paper's hypotheses: ``form_bound_suite``'s worst-case ratios on
    every interval, shifted m-accretivity and compressed-resolvent decay.
    The sector (``numerical-range-sector``) is reported only, and the
    positive-type ratios are written."""
    prob = problem_from(cfg)
    suite = form_bound_suite(prob)
    consts, eps, ratio = suite["constants"], suite["eps_grid"], suite["ratio"]
    csvio.write_rows(outdir / "form_bound_margins.csv", "eps,j,ratio",
                     [(eps[e], j + 1, ratio[e, j])
                      for e, j in np.ndindex(ratio.shape)])

    hull = numerical_range_hull(prob.H)
    csvio.write_rows(outdir / "range_boundary.csv", "phi,re,im",
                     [(p, v.real, v.imag)
                      for p, v in zip(hull.angles, hull.boundary)])

    # shifted accretivity at the bound suggested by the form estimate
    eps0 = consts.eps_0
    E_acc = consts.M / (0.5 * eps0) ** 3 if eps0 > 0 else 1.0
    lo, d, up = prob.diagonals()
    Hs = (lo, d + E_acc, up)  # H + E_acc, as its diagonals
    acc_ok, worst = check_m_accretive(Hs, [0.5, 1.0, 4.0, 1 + 2j])

    csvio.write_rows(outdir / "positive_type.csv", "t,ratio",
                     [(t, (1 + t) * np.linalg.norm(resolvent(Hs, -t), 2))
                      for t in np.geomspace(1e-2, 1e6, 17)])

    # factored-perturbation admissibility: compressed resolvent is bounded
    # and decays along the shift grid
    E0 = safe_shift(prob.base_diagonals()) + 10.0
    halver = _InvSqrtShifted(prob.base_operator())
    decay = decay_profile(halver, build_factorization(prob, "full_triple"),
                          [E0, 10 * E0, 100 * E0])

    return _manifest(outdir, cfg, "hypothesis-check",
                     {**suite["checks"], "numerical-range-sector": None,
                      "shifted-m-accretivity": acc_ok,
                      "compressed-resolvent-decay": decay["monotone"]},
                     {"C_q": consts.C_q, "C_r": consts.C_r, "C_s": consts.C_s,
                      "C_0": consts.C_0, "M": consts.M, "eps_0": consts.eps_0,
                      "min_form_bound_slack": suite["min_slack"],
                      "min_pointwise_slack": suite["min_pointwise_slack"],
                      "sector_vertex": hull.gamma, "sector_angle": hull.theta,
                      "accretive_shift": E_acc, "worst_resolvent_ratio": worst,
                      "K_norm_start": decay["normK"][0],
                      "K_norm_end": decay["normK"][-1],
                      "tolerance_slack": TOL_SLACK,
                      "base_operator_path": halver.path})


def cmd_trace_check(cfg: dict, outdir: Path) -> int:
    suite = trace_suite(cfg["seed"])
    csvio.write_rows(outdir / "trace_residuals.csv", "h,residual",
                     suite["residuals"])
    ratio_1, ratio_2 = suite["ratios"]
    return _manifest(outdir, cfg, "trace-check", suite["checks"],
                     {"closed_form_residual": suite["closed_residual"],
                      "richardson_ratio_1": ratio_1,
                      "richardson_ratio_2": ratio_2, "tolerance": TOL_TRACE})


COMMANDS = {
    "assemble": cmd_assemble,
    "verify-kato": cmd_verify_kato,
    "verify-krein": cmd_verify_krein,
    "kappa-study": cmd_kappa_study,
    "decay-study": cmd_decay_study,
    "kernel-dump": cmd_kernel_dump,
    "hypothesis-check": cmd_hypothesis_check,
    "trace-check": cmd_trace_check,
}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand: the positional ``command``,
    ``--config`` and one flag per ``DEFAULTS`` key, which every subcommand
    reads through ``load_config``."""
    parser = argparse.ArgumentParser(
        prog="sqrtdom",
        description="Spectral diagnostics for 1-D operators with complex "
                    "coefficients")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="key = value configuration file")
    for key in DEFAULTS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
    except (ConfigError, ValueError, OSError) as exc:  # unreadable --config
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, outdir)
    except (ConfigError,) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # checks raise on violated preconditions
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
