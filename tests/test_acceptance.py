"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (run with ``-s`` to see
them inline).  Tolerances are fixed, in ``sqrtdom.checks`` where the command
line applies them too, and not calibrated at run time, except where a
criterion itself defines a calibration procedure (the dichotomy ceiling, which
is the geometric mean of the two negative-control growth rates).
"""

import filecmp
import time

import numpy as np
import pytest

from power_laws import check_power_laws
from sqrtdom.assembly import BoundaryCondition, IntervalSpec
from sqrtdom.checks import (TOL_K0, TOL_KATO, TOL_ORDER, TOL_PLATEAU,
                            TOL_SLACK, TOL_SLOPE, TOL_TRACE, decay_suite,
                            failed, form_bound_suite, kato_checks, krein_suite,
                            trace_suite)
from sqrtdom.cli import main as cli_main
from sqrtdom.domains import refinement_study
from sqrtdom.kato import verify_identity
from sqrtdom.matfun import QuadratureSpec, frac_power_quad, sqrt_db
from sqrtdom.problems import lions_operator, make_problem

DIR = BoundaryCondition.dirichlet()
NEU = BoundaryCondition.neumann()

FAMILIES = ("constant_qrs", "complex_constant", "mixed_sign", "sawtooth",
            "spike")
INTERVALS = (
    IntervalSpec("finite", 0.0, 1.0),
    IntervalSpec("half_line", a=0.0, truncation_radius=8.0),
    IntervalSpec("full_line", truncation_radius=6.0),
)
BC_CYCLE = ((DIR, DIR), (NEU, DIR), (DIR, NEU))


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, detail


def setup_runs(n):
    runs = []
    for i, family in enumerate(FAMILIES):
        for j, interval in enumerate(INTERVALS):
            bl, br = BC_CYCLE[(i + j) % len(BC_CYCLE)]
            if interval.kind == "full_line":
                bl = DIR  # artificial boundaries stay Dirichlet
            prob = make_problem(family, interval=interval, n=n,
                                bc_left=bl, bc_right=br)
            runs.append(prob)
    return runs


@pytest.fixture(scope="module")
def identity_pass():
    """One ``verify_identity`` pass over the 15 problems at n = 200, which
    criteria 1 and 2 share, and its wall time (assembly excluded)."""
    runs = setup_runs(n=200)
    t0 = time.perf_counter()
    reports = [verify_identity(prob) for prob in runs]
    return reports, time.perf_counter() - t0


def identity_criterion(criterion, name, path, identity_pass):
    """``verify-kato``'s check ``name`` on every problem, by the rule of
    ``kato_checks``, and the shared pass within its 30 s gate."""
    reports, elapsed = identity_pass
    worst = max(rep["max_error"][path] for rep in reports)
    n_excluded = sum(len(rep["excluded"]) for rep in reports)
    n_failed = sum(not kato_checks(rep)[name] for rep in reports)
    ok = n_failed == 0 and elapsed < 30.0
    report(criterion, ok, f"{name}: failed on {n_failed} of {len(reports)} "
                          f"problems, max rel err {worst:.3e} (tol "
                          f"{TOL_KATO:g}), {n_excluded} shifts excluded, "
                          f"shared pass {elapsed:.1f}s at n=200")


def test_criterion_1_kato_identity_oracle(identity_pass):
    identity_criterion(1, "factored-resolvent-identity", "full_triple",
                       identity_pass)


def test_criterion_2_two_step_composition(identity_pass):
    identity_criterion(2, "two-step-composition", "two_step", identity_pass)


def test_criterion_3_fractional_power_suite():
    rng = np.random.default_rng(101)
    A = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    A /= np.sqrt(50)
    lo = np.linalg.eigvalsh(0.5 * (A + A.conj().T))[0]
    H = A + (abs(lo) + 1.0) * np.eye(50)

    quad400 = QuadratureSpec(panel_nodes=25, panels=8)
    assert 2 * quad400.n_nodes == 400
    Y = sqrt_db(H)
    half_err = np.linalg.norm(frac_power_quad(H, 0.5, quad400) - Y) \
        / np.linalg.norm(Y)

    adj, semi = check_power_laws(H, 0.25, 0.25, QuadratureSpec(panels=16))

    errs = []
    for nodes in (4, 8, 16):
        P = frac_power_quad(H, 0.5, QuadratureSpec(panel_nodes=nodes, panels=4))
        errs.append(np.linalg.norm(P - Y) / np.linalg.norm(Y))
    factors = [errs[i] / errs[i + 1] for i in range(2)]

    ok = (half_err <= 1e-6 and adj <= 1e-5 and semi <= 1e-5
          and min(factors) >= 4.0)
    report(3, ok, f"fractional powers: half-power gap {half_err:.2e} "
                  f"(tol 1e-6, 400 nodes), power-law residuals "
                  f"{adj:.2e}/{semi:.2e} (tol 1e-5), doubling factors "
                  f"{factors[0]:.1f}x/{factors[1]:.1f}x (need >= 4)")


def test_criterion_4_krein_suite():
    # verify-krein's default run
    suite = krein_suite(0.0, 1.0, -5.0, (64, 128, 256), 64, 25.0,
                        (25.0, 100.0))
    bad = failed(suite["checks"])
    report(4, not bad, f"boundary-kernel suite: min observed order "
                       f"{suite['min_order']:.2f} (need {TOL_ORDER}), "
                       f"boundary row {suite['boundary_row']:.1e}, min "
                       f"envelope slack {suite['min_slack']:.2e} (need >= 0), "
                       f"K0 two-method {suite['k0_diff']:.1e} (tol "
                       f"{TOL_K0:g}), failed {bad}")


def test_criterion_5_form_bound_suite():
    problems = [
        make_problem("constant_qrs",
                     IntervalSpec("full_line", truncation_radius=8.0),
                     n=320, bc_left=DIR, bc_right=DIR),
        make_problem("spike",
                     IntervalSpec("half_line", a=0.0, truncation_radius=8.0),
                     n=320, bc_left=NEU, bc_right=DIR),
        make_problem("mixed_sign", IntervalSpec("finite", 0.0, 1.0), n=200,
                     bc_left=DIR, bc_right=DIR),
    ]
    suites = [form_bound_suite(prob) for prob in problems]
    bad = [failed(suite["checks"]) for suite in suites]
    form = [float(np.max(suite["ratio"])) for suite in suites]
    # the pointwise ratio is exact, so it reads the near-tight value the
    # paper's inequality leaves (a missing 1/L term reads 1.085 to 10.03)
    pointwise = [1.0 - suite["min_pointwise_slack"] for suite in suites]
    ok = not any(bad) and np.allclose(pointwise, (0.9866, 0.9912, 0.9534),
                                      rtol=0, atol=1e-3)
    report(5, ok, f"relative form bounds: worst ratios "
                  f"{', '.join(f'{r:.3e}' for r in form)} over 16 eps x 3 "
                  f"forms (Frobenius upper estimates), pointwise-bound worst "
                  f"ratios {', '.join(f'{r:.4f}' for r in pointwise)} (exact);"
                  f" slack floor {TOL_SLACK:g}, failed per problem {bad}")


def test_criterion_6_decay_suite():
    E_grid = np.geomspace(1e2, 1e6, 7)
    unit = IntervalSpec("finite", 0.0, 1.0)
    suites = {family: decay_suite(make_problem(family, unit, n=800,
                                               bc_left=DIR, bc_right=DIR),
                                  E_grid)
              for family in ("constant_qrs", "spike")}
    bad = {family: failed(suite["checks"])
           for family, suite in suites.items()}

    def detail(family, suite):
        qr, s = suite["profiles"]["qr_pair"], suite["profiles"]["s_pair"]
        slopes = "/".join(f"{m['slope']:.2f}"
                          for m in suite["multipliers"].values())
        return (f"{family}: K-norm slopes {qr['slope']:.2f}/{s['slope']:.2f}"
                f" (monotone {qr['monotone']}/{s['monotone']}), "
                f"derivative-block plateau "
                f"{suite['profiles']['full_triple']['plateau_ratio']:.2f}, "
                f"multiplier slopes {slopes}")

    report(6, not any(bad.values()),
           f"shift decay (slopes need <= {TOL_SLOPE}, plateau >= "
           f"{TOL_PLATEAU}): " + "; ".join(
               detail(family, suite) for family, suite in suites.items())
           + f"; failed {bad}")


def test_criterion_7_domain_dichotomy():
    ns = [32, 64, 128, 256, 512, 1024]

    # the negative control calibrates its own ceiling on this ladder, by the
    # growth rule the verdict itself applies
    control = refinement_study(lions_operator, ns, 1.0, 0.5, None)
    growth_quarter = control.calibration["lions_growth_quarter"]
    growth_half = control.calibration["lions_growth_half"]
    ceiling = control.threshold

    baseline = refinement_study(lambda n: make_problem("free", n=n), ns, 1.0,
                                0.5, ceiling)
    baseline_worst = max(abs(row["kappa"] - 1.0) for row in baseline.rows)
    kappas = [row["kappa"] for row in control.rows]
    monotone_half = all(a < b for a, b in zip(kappas, kappas[1:]))

    # admissible-coefficient problems under the same calibrated ceiling
    # (shorter ladder: their ratios are flat in n, so this is conservative)
    verdicts = {}
    for name, bc_left in (("complex_p", DIR), ("complex_constant", DIR),
                          ("mixed_sign", BoundaryCondition(1 + 0.5j))):
        rep = refinement_study(
            lambda n: make_problem(name, n=n, bc_left=bc_left),
            [32, 64, 128, 256, 512], 1.0, 0.5, ceiling)
        verdicts[name] = rep.verdict

    ok = (baseline_worst <= 1e-12
          and growth_half > growth_quarter
          and growth_quarter < ceiling < growth_half
          and monotone_half
          and control.verdict == "divergent"
          and all(v == "bounded" for v in verdicts.values()))
    report(7, ok, f"dichotomy: baseline |kappa-1| {baseline_worst:.1e} "
                  f"(tol 1e-12), control growth {growth_half:.2f} (critical) "
                  f"vs {growth_quarter:.2f} (quarter), ceiling {ceiling:.2f}, "
                  f"admissible verdicts {sorted(verdicts.values())}")


def test_criterion_8_trace_formula():
    suite = trace_suite(55)
    ratios = suite["ratios"]
    bad = failed(suite["checks"])
    report(8, not bad, f"determinant-trace identity: closed-form residual "
                       f"{suite['closed_residual']:.2e} (tol {TOL_TRACE:g}), "
                       f"step-halving ratios {ratios[0]:.2f}/{ratios[1]:.2f} "
                       f"(second order), failed {bad}")


def test_criterion_9_determinism(tmp_path):
    mismatched = []
    for cmd in (["verify-kato", "--n", "32"],
                ["hypothesis-check", "--n", "24", "--interval", "full_line",
                 "--radius", "4"]):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd[0]}_{tag}"
            code = cli_main([*cmd, "--seed", "2024", "--outdir", str(out)])
            assert code == 0
            outs.append(out)
        for path in sorted(outs[0].iterdir()):
            if path.name == "manifest.txt":
                continue  # echoes the differing outdir
            if not filecmp.cmp(path, outs[1] / path.name, shallow=False):
                mismatched.append(path.name)
    ok = not mismatched
    report(9, ok, "byte-identical CSV outputs across repeated runs"
           + (f" (mismatch: {mismatched})" if mismatched else ""))
