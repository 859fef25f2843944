"""Command-line entry point: configuration, experiment orchestration, reports.

Every subcommand writes its CSV artifacts plus a ``manifest.txt`` with the
echoed configuration, seed, tolerances and verdicts.  Identical configuration
and seed produce byte-identical output files.  Exit codes: 0 on success, 1 on
any failed check, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import csvio
from .assembly import (BoundaryCondition, CoefficientSet, IntervalSpec,
                       build_mesh, w12_norm_matrix)
from .checks import (TOL_K0, TOL_KATO, TOL_ORDER, TOL_PLATEAU, TOL_SLACK,
                     TOL_SLOPE, TOL_TRACE, decay_suite, form_bound_suite,
                     krein_suite, trace_suite)
from .domains import refinement_study
from .kato import (PATHS, _InvSqrtShifted, build_factorization,
                   decay_profile, verify_identity)
from .krein import (green_kernel_dirichlet, krein_resolvent, sqrt_kernel,
                    u2_closed_form, d_theta)
from .matfun import resolvent
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
# the keys that shape a problem; the lions control, fixed on (0, 1), reads none
_PROBLEM_KEYS = ("interval", "a", "b", "radius", "theta_a", "theta_b",
                 "coeff_p", "coeff_q", "coeff_r", "coeff_s")


def _geometric_grid(text: str) -> list[float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3 or parts[0] <= 0 or parts[1] <= 1 or parts[2] < 2:
        raise ValueError("needs 'start,factor,count' with start > 0, "
                         "factor > 1 and count >= 2")
    start, factor, count = parts
    return [start * factor**k for k in range(int(count))]


# how each non-string value is read from its flag or file text
_READERS = {
    "a": float, "b": float, "radius": float, "E": float, "alpha": float,
    "growth_threshold": float, "n": int, "seed": int,
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
        return BoundaryCondition(complex(text.replace("i", "j")))
    except ValueError as exc:
        raise ConfigError(f"cannot parse boundary parameter {text!r}") from exc


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
    if cfg["problem"] == "lions":
        unread = [key for key in _PROBLEM_KEYS
                  if meaning(key, cfg[key]) != meaning(key, DEFAULTS[key])]
        if unread:
            raise ConfigError(f"the lions control is fixed on (0, 1) and "
                              f"reads none of {', '.join(unread)}")
    try:
        interval_from(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if (args.command in ("verify-krein", "kernel-dump")
            and cfg["interval"] != "finite"):
        # their kernels are closed forms on a finite interval [a, b]
        raise ConfigError(f"{args.command} needs --interval finite")
    if cfg["E"] is not None and cfg["E"] <= 0:
        raise ConfigError("E must be positive")
    if args.command == "decay-study" and cfg["E"] is not None:
        raise ConfigError("decay-study reads a shift grid (E_grid), not E")
    if cfg["n"] < 2:
        raise ConfigError("n must be at least 2")
    if cfg["n_list"] is not None and (len(cfg["n_list"]) < 2
                                      or min(cfg["n_list"]) < 2):
        raise ConfigError("n_list needs at least two entries, each at least 2")
    if not 0.0 < cfg["alpha"] < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
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
    mesh = build_mesh(interval, cfg["n"])
    coeffs = coefficients_from(cfg, mesh)
    return Problem(interval, mesh, coeffs, parse_theta(cfg["theta_a"]),
                   parse_theta(cfg["theta_b"]))


def _manifest(outdir: Path, cfg: dict, command: str, checks: list[str],
              extra: dict) -> None:
    entries = {"command": command}
    for key in sorted(DEFAULTS):
        value = cfg[key]
        if isinstance(value, list):
            value = ",".join(csvio.fmt(v) if isinstance(v, float) else str(v)
                             for v in value)
        entries[f"config.{key}"] = value
    entries["checks"] = ",".join(checks)
    entries.update(extra)
    csvio.write_manifest(outdir / "manifest.txt", entries)


# --------------------------------------------------------------------------
# subcommands


def cmd_assemble(cfg: dict, outdir: Path) -> int:
    prob = problem_from(cfg)
    forms = prob.forms
    for name, mat in (("M", forms.M), ("K0", forms.K0), ("K1", forms.K1),
                      ("K2", forms.K2), ("K3", forms.K3),
                      ("Bdry", forms.Bdry), ("operator", prob.H)):
        csvio.write_matrix(outdir / f"{name}.csv", mat)
    csvio.write_rows(outdir / "mesh.csv", "i,x",
                     [(str(i), csvio.fmt(x))
                      for i, x in enumerate(prob.mesh.nodes)])
    GE = w12_norm_matrix(prob.mesh, prob.bc_left, prob.bc_right,
                         cfg["E"] or 1.0)
    csvio.write_matrix(outdir / "sobolev_gram.csv", GE)
    _manifest(outdir, cfg, "assemble", ["form-matrices", "operator-matrix"],
              {"n_dof": forms.n_dof,
               "coefficient_hash": prob.coeffs.digest(),
               "mass_treatment": "lumped"})
    return 0


def cmd_verify_kato(cfg: dict, outdir: Path) -> int:
    rep = verify_identity(problem_from(cfg))
    csvio.write_rows(outdir / "kato_errors.csv", "z_re,z_im,path,rel_error",
                     [(csvio.fmt(r["z"].real), csvio.fmt(r["z"].imag), path,
                       csvio.fmt(r[path]))
                      for path in PATHS for r in rep["records"]])
    worst = rep["max_error"]
    # an excluded shift is one the identities were not checked at
    ok = not rep["excluded"] and max(worst.values()) <= TOL_KATO
    _manifest(outdir, cfg, "verify-kato",
              ["factored-resolvent-identity", "two-step-composition"],
              {"tolerance": TOL_KATO,
               "max_identity_error": worst["full_triple"],
               "max_two_step_error": worst["two_step"],
               "excluded_points": len(rep["excluded"]),
               "verdict": "pass" if ok else "fail"})
    return 0 if ok else 1


def cmd_verify_krein(cfg: dict, outdir: Path) -> int:
    suite = krein_suite(cfg["a"], cfg["b"], -(cfg["E"] or 5.0),
                        cfg["n_list"] or [64, 128, 256], cfg["n"],
                        cfg["E"] or 25.0, cfg["E_grid"] or [25.0, 100.0])
    csvio.write_rows(outdir / "krein_errors.csv", "theta,n,max_error",
                     [(label, str(n), csvio.fmt(err))
                      for label, n, err in suite["errors"]])
    csvio.write_rows(outdir / "bessel_bound.csv", "E,lhs,rhs",
                     [(csvio.fmt(E), csvio.fmt(rec["lhs"]),
                       csvio.fmt(rec["rhs"])) for E, rec in suite["bessel"]])
    _manifest(outdir, cfg, "verify-krein",
              ["rank-one-resolvent-convergence", "sqrt-kernel-boundary-row",
               "macdonald-envelope", "macdonald-two-method"],
              {"min_observed_order": suite["min_order"],
               "boundary_row_max": suite["boundary_row"],
               "min_bessel_slack": suite["min_slack"],
               "k0_two_method_diff": suite["k0_diff"],
               "tolerance_order": TOL_ORDER, "tolerance_k0": TOL_K0,
               "verdict": "pass" if suite["ok"] else "fail"})
    return 0 if suite["ok"] else 1


def cmd_kappa_study(cfg: dict, outdir: Path) -> int:
    control = cfg["problem"] == "lions"
    level = {**cfg, **_KAPPA_ALIASES.get(cfg["problem"], {})}
    report = refinement_study(lions_operator if control
                              else lambda n: problem_from({**level, "n": n}),
                              cfg["n_list"] or [32, 64, 128, 256],
                              cfg["E"] or 1.0, cfg["alpha"],
                              cfg["growth_threshold"])
    rows = [(str(r["n"]), csvio.fmt(r["E"]), csvio.fmt(r["alpha"]),
             csvio.fmt(r["min_ratio"]), csvio.fmt(r["max_ratio"]),
             csvio.fmt(r["kappa"]), report.verdict) for r in report.rows]
    csvio.write_rows(outdir / "kappa.csv",
                     "n,E,alpha,min_ratio,max_ratio,kappa,verdict", rows)
    extra = {"growth": report.growth, "threshold": report.threshold,
             "verdict": report.verdict,
             **{f"calibration.{k}": v for k, v in report.calibration.items()}}
    _manifest(outdir, cfg, "kappa-study", ["sqrt-domain-equivalence"], extra)
    # the control diverges from the critical power on; every problem that
    # problem_from builds keeps its ratio bounded
    expected = "divergent" if control and cfg["alpha"] >= 0.5 else "bounded"
    return 0 if report.verdict == expected else 1


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
    suite = decay_suite(prob, E_grid)
    profiles, multipliers = suite["profiles"], suite["multipliers"]
    for variant, prof in profiles.items():
        csvio.write_rows(outdir / f"decay_{variant}.csv",
                         "E,normK,normA,normB",
                         [tuple(map(csvio.fmt, row)) for row in zip(
                             prof["E"], prof["normK"], prof["normA"],
                             prof["normB"])])
    csvio.write_rows(outdir / "multiplier_decay.csv", "phi,E,norm",
                     [(name, csvio.fmt(E), csvio.fmt(v))
                      for name, rec in multipliers.items()
                      for E, v in zip(rec["E"], rec["norms"])])
    extra = {"slope_qr_pair": profiles["qr_pair"]["slope"],
             "slope_s_pair": profiles["s_pair"]["slope"],
             "monotone_qr_pair": profiles["qr_pair"]["monotone"],
             "monotone_s_pair": profiles["s_pair"]["monotone"],
             "plateau_full_triple": profiles["full_triple"]["plateau_ratio"],
             "tolerance_slope": TOL_SLOPE,
             "tolerance_plateau": TOL_PLATEAU,
             "verdict": "pass" if suite["ok"] else "fail",
             **{f"slope_multiplier_{name}": rec["slope"]
                for name, rec in multipliers.items()}}
    _manifest(outdir, cfg, "decay-study",
              ["factored-norm-decay", "derivative-block-plateau",
               "multiplier-decay"], extra)
    return 0 if suite["ok"] else 1


def cmd_kernel_dump(cfg: dict, outdir: Path) -> int:
    mesh = build_mesh(interval_from(cfg), cfg["n"])
    E = cfg["E"] or 25.0
    z = -E
    th = parse_theta(cfg["theta_a"])
    X, Xp = np.meshgrid(mesh.nodes, mesh.nodes, indexing="ij")
    green_dir = green_kernel_dirichlet(z, X, Xp, cfg["a"], cfg["b"])
    csvio.write_kernel(outdir / "green_dirichlet.csv", mesh.nodes, green_dir)
    checks = ["green-kernel"]
    extra = {"E": E, "n": cfg["n"]}
    if not th.is_dirichlet:
        robin = krein_resolvent(green_dir, z, th, mesh)
        csvio.write_kernel(outdir / "green_robin.csv", mesh.nodes, robin)
        csvio.write_kernel(outdir / "sqrt_kernel.csv", mesh.nodes,
                           sqrt_kernel(E, th, mesh))
        checks += ["rank-one-corrected-green", "sqrt-kernel"]
        extra["coupling_denominator"] = abs(d_theta(z, th, cfg["a"], cfg["b"]))
        extra["u2_left_value"] = abs(u2_closed_form(z, cfg["a"], cfg["a"],
                                                    cfg["b"]))
    _manifest(outdir, cfg, "kernel-dump", checks, extra)
    return 0


def cmd_hypothesis_check(cfg: dict, outdir: Path) -> int:
    """The paper's hypotheses: ``form_bound_suite`` on 64 seeded dof vectors
    and 32 seeded node vectors, on every interval, shifted m-accretivity and
    compressed-resolvent decay; the sector and positive type are written."""
    prob = problem_from(cfg)
    H = prob.H
    rng = np.random.default_rng(cfg["seed"])

    def draw(count, dim):  # seeded complex vectors, one per column
        X = rng.standard_normal((count, 2, dim))
        return (X[:, 0] + 1j * X[:, 1]).T

    suite = form_bound_suite(prob, draw(64, prob.forms.n_dof),
                             draw(32, len(prob.mesh.nodes)))
    consts, eps, slack = suite["constants"], suite["eps_grid"], suite["slack"]
    csvio.write_rows(outdir / "form_bound_margins.csv",
                     "eps,j,lhs,bound,slack",
                     [(csvio.fmt(eps[e]), str(j + 1),
                       csvio.fmt(suite["lhs"][k, j]),
                       csvio.fmt(suite["bound"][k, e]),
                       csvio.fmt(slack[k, e, j]))
                      for k, e, j in np.ndindex(slack.shape)])

    hull = numerical_range_hull(H, seed=cfg["seed"])
    csvio.write_rows(outdir / "range_boundary.csv", "phi,re,im",
                     [(csvio.fmt(p), csvio.fmt(v.real), csvio.fmt(v.imag))
                      for p, v in zip(hull.angles, hull.boundary)])

    # shifted accretivity at the bound suggested by the form estimate
    eps0 = consts.eps_0
    E_acc = consts.M / (0.5 * eps0) ** 3 if eps0 > 0 else 1.0
    Hs = H + E_acc * np.eye(H.shape[0])
    acc_ok, worst = check_m_accretive(Hs, [0.5, 1.0, 4.0, 1 + 2j])

    t_grid = np.geomspace(1e-2, 1e6, 17)
    ratio_rows = []
    for t in t_grid:
        ratio = (1 + float(t)) * np.linalg.norm(resolvent(Hs, -t), 2)
        ratio_rows.append((csvio.fmt(float(t)), csvio.fmt(ratio)))
    csvio.write_rows(outdir / "positive_type.csv", "t,ratio", ratio_rows)

    # factored-perturbation admissibility: compressed resolvent is bounded
    # and decays along the shift grid
    T0 = prob.base_operator()
    E0 = safe_shift(T0) + 10.0
    decay = decay_profile(_InvSqrtShifted(T0),
                          build_factorization(prob, "full_triple"),
                          [E0, 10 * E0, 100 * E0])

    ok = suite["ok"] and acc_ok and decay["monotone"]
    _manifest(outdir, cfg, "hypothesis-check",
              ["relative-form-bound", "pointwise-trace-bound",
               "numerical-range-sector", "shifted-m-accretivity",
               "compressed-resolvent-decay"],
              {"C_q": consts.C_q, "C_r": consts.C_r, "C_s": consts.C_s,
               "C_0": consts.C_0, "M": consts.M, "eps_0": consts.eps_0,
               "min_form_bound_slack": suite["min_slack"],
               "min_pointwise_slack": suite["min_pointwise_slack"],
               "sector_vertex": hull.gamma, "sector_angle": hull.theta,
               "accretive_shift": E_acc, "worst_resolvent_ratio": worst,
               "K_norm_start": decay["normK"][0],
               "K_norm_end": decay["normK"][-1],
               "tolerance_slack": TOL_SLACK,
               "verdict": "pass" if ok else "fail"})
    return 0 if ok else 1


def cmd_trace_check(cfg: dict, outdir: Path) -> int:
    suite = trace_suite(cfg["seed"])
    csvio.write_rows(outdir / "trace_residuals.csv", "h,residual",
                     [(csvio.fmt(h), csvio.fmt(res))
                      for h, res in suite["residuals"]])
    ratios = suite["ratios"]
    _manifest(outdir, cfg, "trace-check",
              ["determinant-trace-derivative", "step-halving-order"],
              {"closed_form_residual": suite["closed_residual"],
               "richardson_ratio_1": ratios[0], "richardson_ratio_2": ratios[1],
               "tolerance": TOL_TRACE,
               "verdict": "pass" if suite["ok"] else "fail"})
    return 0 if suite["ok"] else 1


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
    parser = argparse.ArgumentParser(
        prog="sqrtdom",
        description="Spectral diagnostics for 1-D operators with complex "
                    "coefficients")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value configuration file")
        for key in DEFAULTS:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key)
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
