import filecmp
import sys

import numpy as np
import pytest

from csv_tables import read_matrix, write_coefficient
from sqrtdom import checks, cli, kato
from sqrtdom.cli import (COMMANDS, build_parser, load_config, main,
                         parse_theta, problem_from, read_config_file)
from sqrtdom.matfun import resolvent, spectral_norm
from sqrtdom.problems import Problem


def run(tmp_path, name, *args):
    out = tmp_path / name
    code = main([*args, "--outdir", str(out)])
    return code, out


class TestConfig:
    def test_theta_aliases(self):
        assert parse_theta("dirichlet").is_dirichlet
        assert parse_theta("neumann").cot() == 0.0
        assert parse_theta("1+0.5i").theta == 1 + 0.5j
        assert parse_theta("0.7").theta == 0.7

    def test_config_file_roundtrip(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# comment line\nproblem = free\nn = 2\ntheta_a = dirichlet\n")
        parsed = read_config_file(cfgfile)
        assert parsed == {"problem": "free", "n": "2",
                          "theta_a": "dirichlet"}

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("wibble = 3\n")
        code = main(["assemble", "--config", str(cfgfile),
                     "--outdir", str(tmp_path / "o")])
        assert code == 2

    def test_bad_value_is_config_error(self, tmp_path):
        # refinement studies need two levels; one used to fail as a check.
        # Missing files, a bad interval and E <= 0 used to exit 1, crash or,
        # for kernel-dump, run at E = 25.  A problem name the command cannot
        # build used to exit 1, the failed-check code, and an alias must not
        # silently override a boundary condition that was set
        missing = tmp_path / "missing"
        nosuch = tmp_path / "nosuch.cfg"
        nosuch.write_text("problem = nosuch\n")
        for i, args in enumerate((
                "assemble --n 1", "verify-krein --n-list 64",
                "verify-krein --n-list 1,64",
                "kappa-study --problem complex_p --n-list 64",
                f"assemble --config {missing}.cfg",
                f"assemble --n 8 --coeff-q {missing}.csv",
                "assemble --a 1 --b 0 --n 8",
                "assemble --interval half_line --radius -1 --n 8",
                "kappa-study --problem free --E -3 --n-list 8,16",
                "kernel-dump --E 0 --n 16",
                # closed-form finite-interval commands used to compute on
                # [a, b] whatever --interval said, or fail as a check
                "kernel-dump --interval full_line --radius 3 --n 8",
                "kernel-dump --interval half_line --a 1 --b 0 --n 8",
                "verify-krein --interval full_line --a 1 --b 0 --n 8 "
                "--n-list 8,16",
                "verify-kato --problem lions --n 8",
                "decay-study --problem robin_complex --n 8",
                f"verify-kato --config {nosuch} --n 8",
                "kappa-study --problem robin_complex --theta-a neumann "
                "--n-list 8,16",
                # the lions control is fixed on (0, 1) and used to ignore
                # the keys that shape a problem
                "kappa-study --problem lions --interval half_line --radius 4 "
                "--n-list 8,16",
                "kappa-study --problem lions --coeff-q /nonexistent.csv "
                "--n-list 8,16",
                # a boundary parameter used to be parsed only by the
                # subcommands that build a problem
                "trace-check --theta-a garbage",
                "verify-krein --theta-b garbage --n-list 8,16 --n 8",
                "kernel-dump --theta-b garbage --n 8",
                # decay-study reads a shift grid; one shift used to get a
                # slope fitted through a single point, and a mesh too coarse
                # for the default grid used to fail after every norm
                "decay-study --n 16 --E 100", "decay-study --n 8")):
            assert run(tmp_path, str(i), *args.split())[0] == 2, args

    def test_same_boundary_condition_in_other_words(self, tmp_path):
        # the lions and alias checks used to compare option text, so a
        # condition spelled differently from its default read as a change
        for i, args in enumerate((
                "kappa-study --problem lions --theta-a Dirichlet "
                "--n-list 8,16",
                "kappa-study --problem robin_complex --theta-a 1+0.5I "
                "--n-list 8,16")):
            code, out = run(tmp_path, str(i), *args.split())
            assert code == 0, args
            # the manifest echoes the text as given
            assert f"config.theta_a = {args.split()[4]}" in (
                out / "manifest.txt").read_text()

    def test_coarse_ladder_runs_the_lions_control(self, tmp_path):
        # n >= 2 is the only mesh floor: the lions control, run for itself
        # or to calibrate the threshold, used to refuse fewer than 8 cells
        for problem in ("lions", "complex_p"):
            code, out = run(tmp_path, problem, "kappa-study", "--problem",
                            problem, "--n-list", "4,8")
            assert code == 0
            assert len((out / "kappa.csv").read_text().splitlines()) == 3

    def test_flag_overrides_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n = 16\nproblem = free\n")
        code, out = run(tmp_path, "o", "assemble", "--config", str(cfgfile),
                        "--n", "2")
        assert code == 0
        assert "config.n = 2" in (out / "manifest.txt").read_text()


class TestAssemble:
    def test_hand_oracle_through_cli(self, tmp_path):
        # Dirichlet ends, 2 cells: the single-hat stiffness matrix is [4]
        code, out = run(tmp_path, "o", "assemble", "--problem", "free",
                        "--n", "2")
        assert code == 0
        K0 = read_matrix(out / "K0.csv")
        np.testing.assert_allclose(K0, [[4.0]])

    def test_coefficient_csv_input(self, tmp_path):
        x = np.linspace(0, 1, 33)
        qpath = tmp_path / "q.csv"
        write_coefficient(qpath, x, np.full(33, 2.0 + 0.0j))
        code, out = run(tmp_path, "o", "assemble", "--n", "8",
                        "--coeff-q", str(qpath))
        assert code == 0
        # lumped potential at interior nodes: q * h with q == 2, h == 1/8
        K3 = read_matrix(out / "K3.csv")
        np.testing.assert_allclose(np.diag(K3), 2.0 / 8.0, rtol=1e-12)

    @pytest.mark.parametrize("command", ["assemble", "verify-kato"])
    def test_non_finite_coefficient_file_is_config_error(self, tmp_path,
                                                         command):
        qpath = tmp_path / "q.csv"
        qpath.write_text("x,re,im\n0,1,0\n0.5,nan,0\n1,1,0\n",
                         encoding="ascii")
        code, out = run(tmp_path, "o", command, "--n", "16",
                        "--coeff-q", str(qpath))
        assert code == 2
        assert not (out / "M.csv").exists()


class TestVerifyCommands:
    def test_verify_kato_passes_on_default_problem(self, tmp_path):
        code, out = run(tmp_path, "o", "verify-kato", "--n", "32")
        assert code == 0
        text = (out / "manifest.txt").read_text()
        assert "verdict = pass" in text
        max_err = [float(l.split("=")[1]) for l in text.splitlines()
                   if l.startswith("max_identity_error")][0]
        assert max_err <= 1e-9

    def test_verify_kato_fails_with_excluded_points(self, tmp_path,
                                                   monkeypatch):
        solve_core = kato._solve_core
        probes = {
            # the full-triple core is wider than 2n: the one-shot identity
            # is then checked at no shift, which is no pass
            "full_triple": lambda ImK, stage: ImK.shape[0] > 2 * 24,
            # the two-step path's second core: the composition is unchecked
            "stage_2": lambda ImK, stage: stage == "stage 2 (s):",
        }
        for name, rejected in probes.items():
            def probe(ImK, A, RB, R, z, stage):
                if rejected(ImK, stage):
                    raise kato.AdmissibilityError(f"probe at z = {z}")
                return solve_core(ImK, A, RB, R, z, stage)

            monkeypatch.setattr(kato, "_solve_core", probe)
            code, out = run(tmp_path, name, "verify-kato", "--problem",
                            "sawtooth", "--n", "24")
            text = (out / "manifest.txt").read_text()
            assert "excluded_points = 3" in text, name
            assert "verdict = fail" in text and code == 1, name

    def test_verify_kato_assembles_once_and_solves_once_per_shift(
            self, tmp_path, monkeypatch):
        problems, bases, direct, on_base, guards = [], [], [], [], []

        def capture(cfg):
            problems.append(problem_from(cfg))
            return problems[-1]

        def counting_base(prob):
            bases.append(base_operator(prob))
            return bases[-1]

        def counting_resolvent(H, z):
            direct.append(any(H is prob.H for prob in problems))
            on_base.append(any(H is H0 for H0 in bases))
            return resolvent(H, z)

        def counting_norm(M):
            guards.append(M.shape)
            return spectral_norm(M)

        base_operator = Problem.base_operator
        monkeypatch.setattr(cli, "problem_from", capture)
        monkeypatch.setattr(Problem, "base_operator", counting_base)
        # every binding of the one resolvent and the one power iteration,
        # whichever module calls it
        counted = {resolvent: counting_resolvent, spectral_norm: counting_norm}
        for module in [m for name, m in sys.modules.items()
                       if name.startswith("sqrtdom")]:
            for attr, value in list(vars(module).items()):
                if any(value is f for f in counted):
                    monkeypatch.setattr(module, attr, counted[value])
        code, _ = run(tmp_path, "o", "verify-kato", "--n", "16")
        assert code == 0 and len(problems) == 1
        assert len(bases) == 1 and sum(direct) == 3
        # both factored paths start from the one base resolvent of a shift,
        # and no factored core goes through resolvent
        assert sum(on_base) == 3 and len(direct) == 6
        # one conditioning guard per factored core: three cores per shift,
        # each on the n x n matrix that is factored, not the m x m core
        assert len(guards) == 9
        dofs = problems[0].H.shape[0]
        assert set(guards) == {(dofs, dofs)}

    def test_decay_csv_columns(self, tmp_path):
        # one row per shift of the default grid, nine from 100 to 1/h^2
        code, out = run(tmp_path, "o", "decay-study", "--n", "16")
        assert code == 0
        for variant in ("qr_pair", "s_pair", "full_triple"):
            rows = (out / f"decay_{variant}.csv").read_text().splitlines()
            assert rows[0] == "E,normK,normA,normB"
            table = np.array([row.split(",") for row in rows[1:]], dtype=float)
            assert table.shape == (9, 4)
            np.testing.assert_allclose(table[:, 0],
                                       np.geomspace(1e2, 16.0 ** 2, 9),
                                       rtol=1e-15)
        # a mesh too coarse for the default grid runs on a grid it is given
        code, out = run(tmp_path, "coarse", "decay-study", "--n", "8",
                        "--E-grid", "10,2,4")
        assert code == 0
        rows = (out / "decay_qr_pair.csv").read_text().splitlines()
        np.testing.assert_allclose([float(row.split(",")[0])
                                    for row in rows[1:]], [10, 20, 40, 80])

    @pytest.mark.parametrize("problem", ["free", "complex_p"])
    def test_decay_study_without_lower_order_terms(self, tmp_path, problem):
        # K and every multiplier vanish identically: there is nothing to
        # decay, and no slope; the zero-slope sentinel used to fail the check
        code, out = run(tmp_path, "o", "decay-study", "--problem", problem,
                        "--n", "16")
        assert code == 0
        manifest = dict(line.split(" = ", 1) for line in
                        (out / "manifest.txt").read_text().splitlines())
        assert manifest["verdict"] == "pass"
        for key in ("slope_qr_pair", "slope_s_pair",
                    "slope_multiplier_abs_r", "slope_multiplier_abs_s",
                    "slope_multiplier_sqrt_abs_q"):
            assert manifest[key] == "nan", key

    def test_decay_study_shift_below_spectrum_is_config_error(
            self, tmp_path, capsys):
        # the complex Robin end puts a base eigenvalue at -348 + 142i, off
        # the cut, below the default grid's first shift 1e2; the study used
        # to run and exit 1 with verdict fail
        code, out = run(tmp_path, "o", "decay-study", "--problem",
                        "constant_qrs", "--n", "64", "--theta-a", "0.05+0.01i")
        assert code == 2
        assert "--E-grid" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_decay_study_shift_onto_cut_is_config_error(self, tmp_path,
                                                        capsys):
        # the real twin of the case above: base eigenvalues -290, -231, -137
        # stay real after the shift 1e2 and hit the cut guard before the
        # shift rule; the study used to exit 1 as a failed check
        code, out = run(tmp_path, "o", "decay-study", "--problem",
                        "constant_qrs", "--n", "64", "--theta-a", "0.05")
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "--E-grid" in err
        assert not any(out.iterdir())

    def test_kappa_study_exits_1_on_an_unexpected_verdict(self, tmp_path):
        # the control must diverge at the critical power; a threshold that
        # reads it bounded, or one that reads alpha = 1/4 divergent, fails
        for i, args in enumerate((
                "--alpha 0.5 --growth-threshold 10",
                "--alpha 0.25 --growth-threshold 1.0")):
            code, out = run(tmp_path, str(i), "kappa-study", "--problem",
                            "lions", "--n-list", "8,16", *args.split())
            assert code == 1, args
            assert (out / "kappa.csv").exists()

    @pytest.mark.parametrize("alpha", ["0.5", "0.25"])
    def test_kappa_study_shift_below_spectrum_is_config_error(
            self, tmp_path, alpha, capsys):
        # a real potential well deeper than -E: the Gram pencil (alpha = 1/2)
        # or the Hermitian power (alpha = 1/4) is indefinite; both used to
        # exit 1, the failed-check code
        x = np.linspace(0.0, 1.0, 2001)
        with np.errstate(divide="ignore"):
            q = -np.minimum(np.abs(x - 0.5) ** -1.0, 1e4)
        qpath = tmp_path / "q.csv"
        write_coefficient(qpath, x, q)
        code, out = run(tmp_path, "o", "kappa-study", "--problem", "free",
                        "--coeff-q", str(qpath), "--n-list", "32,64",
                        "--alpha", alpha)
        assert code == 2
        assert "--E" in capsys.readouterr().err
        assert not (out / "kappa.csv").exists()

    @pytest.mark.parametrize("theta_a", ["dirichlet", "neumann"])
    def test_kappa_study_complex_well_below_shift_is_config_error(
            self, tmp_path, theta_a, capsys):
        # q = -100 + i leaves eigenvalues of H + 1 with real part near -89
        # and imaginary part 1, off the cut: with Dirichlet ends the operator
        # is tridiagonal Toeplitz (closed-form route), with a Neumann end it
        # takes the Schur route; both used to exit 0 with verdict bounded
        x = np.linspace(0.0, 1.0, 2001)
        qpath = tmp_path / "q.csv"
        write_coefficient(qpath, x, np.full(x.shape, -100.0 + 1.0j))
        code, out = run(tmp_path, "o", "kappa-study", "--problem", "free",
                        "--coeff-q", str(qpath), "--n-list", "32,64,128",
                        "--theta-a", theta_a)
        assert code == 2
        assert "--E" in capsys.readouterr().err
        assert not (out / "kappa.csv").exists()

    def test_kappa_study_lions_divergent(self, tmp_path):
        code, out = run(tmp_path, "o", "kappa-study", "--problem", "lions",
                        "--alpha", "0.5", "--n-list", "32,64,128")
        assert code == 0
        rows = (out / "kappa.csv").read_text().splitlines()
        assert rows[0] == "n,E,alpha,min_ratio,max_ratio,kappa,verdict"
        assert all(line.endswith("divergent") for line in rows[1:])

    def test_trace_check(self, tmp_path):
        code, out = run(tmp_path, "o", "trace-check")
        assert code == 0
        assert "verdict = pass" in (out / "manifest.txt").read_text()

    def test_positive_type_ratios_are_exact_norms(self, tmp_path):
        # (1 + t) ||(Hs + t)^-1|| is an exact 2-norm, not an inner estimate
        args = ["hypothesis-check", "--problem", "sawtooth", "--n", "32",
                "--theta-a", "neumann"]
        code, out = run(tmp_path, "o", *args)
        assert code == 0
        cfg = load_config(build_parser().parse_args(
            [*args, "--outdir", str(out)]))
        manifest = dict(line.split(" = ", 1) for line in
                        (out / "manifest.txt").read_text().splitlines())
        H = problem_from(cfg).H
        Hs = H + float(manifest["accretive_shift"]) * np.eye(H.shape[0])
        rows = (out / "positive_type.csv").read_text().splitlines()
        assert rows[0] == "t,ratio" and len(rows) == 18
        for line in rows[1:]:
            t, ratio = map(float, line.split(","))
            exact = (1 + t) * np.linalg.norm(resolvent(Hs, -t), 2)
            assert ratio == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("interval", ["half_line", "full_line"])
    def test_hypothesis_check_pointwise_bound_on_every_interval(
            self, tmp_path, monkeypatch, interval):
        # the manifest lists pointwise-trace-bound as a check that ran; it
        # used to run on the finite interval only
        check_trudinger, blocks, shift = checks.check_trudinger, [], [0.0]

        def spy(G, w, mesh, eps):
            blocks.append(G.shape)
            rec = check_trudinger(G, w, mesh, eps)
            return {**rec, "point_slack": rec["point_slack"] - shift[0]}

        monkeypatch.setattr(checks, "check_trudinger", spy)
        args = ["hypothesis-check", "--n", "24", "--interval", interval,
                "--radius", "4"]
        assert run(tmp_path, "o", *args)[0] == 0
        assert blocks == [(25, 32)] * 3
        # the verdict reads it: a violated pointwise bound fails the check
        shift[0] = 1e9
        assert run(tmp_path, "violated", *args)[0] == 1

    def test_kappa_study_builds_any_family_and_interval(self, tmp_path):
        # every family on every interval, built like the other subcommands
        args = ["kappa-study", "--problem", "sawtooth", "--n-list", "16,32"]
        code, half = run(tmp_path, "half", *args, "--interval", "half_line",
                         "--radius", "4")
        assert code == 0
        code, finite = run(tmp_path, "finite", *args)
        assert code == 0
        assert not filecmp.cmp(half / "kappa.csv", finite / "kappa.csv",
                               shallow=False)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        args = ["hypothesis-check", "--n", "24", "--seed", "77"]
        _, out1 = run(tmp_path, "run1", *args)
        _, out2 = run(tmp_path, "run2", *args)
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            if name == "manifest.txt":
                # outdir differs by construction; compare the rest
                t1 = [l for l in (out1 / name).read_text().splitlines()
                      if not l.startswith("config.outdir")]
                t2 = [l for l in (out2 / name).read_text().splitlines()
                      if not l.startswith("config.outdir")]
                assert t1 == t2
            else:
                assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name

    def test_seed_changes_outputs(self, tmp_path):
        _, out1 = run(tmp_path, "r1", "hypothesis-check", "--n", "24",
                      "--seed", "1")
        _, out2 = run(tmp_path, "r2", "hypothesis-check", "--n", "24",
                      "--seed", "2")
        assert not filecmp.cmp(out1 / "form_bound_margins.csv",
                               out2 / "form_bound_margins.csv", shallow=False)


class TestManifestKeys:
    """Each subcommand keeps its manifest keys, the config echo aside."""

    CASES = {
        "assemble": ("--problem free --n 8",
                     "n_dof coefficient_hash mass_treatment"),
        "verify-kato": ("--n 16", "tolerance max_identity_error "
                        "max_two_step_error excluded_points verdict"),
        "verify-krein": ("--n-list 16,32 --n 16", "min_observed_order "
                         "boundary_row_max min_bessel_slack k0_two_method_diff "
                         "tolerance_order tolerance_k0 verdict"),
        "kappa-study": ("--problem lions --n-list 8,16", "growth "
                        "increment_ratio threshold "
                        "verdict calibration.lions_growth_quarter "
                        "calibration.lions_growth_half"),
        "decay-study": ("--n 16", "slope_qr_pair slope_s_pair monotone_qr_pair "
                        "monotone_s_pair plateau_full_triple tolerance_slope "
                        "tolerance_plateau verdict slope_multiplier_abs_r "
                        "slope_multiplier_abs_s slope_multiplier_sqrt_abs_q"),
        "kernel-dump": ("--theta-a neumann --n 16",
                        "E n coupling_denominator u2_left_value"),
        "hypothesis-check": ("--n 16", "C_q C_r C_s C_0 M eps_0 "
                             "min_form_bound_slack min_pointwise_slack "
                             "sector_vertex sector_angle "
                             "accretive_shift worst_resolvent_ratio "
                             "K_norm_start K_norm_end tolerance_slack verdict"),
        "trace-check": ("", "closed_form_residual richardson_ratio_1 "
                        "richardson_ratio_2 tolerance verdict"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_manifest_keys(self, tmp_path, command):
        args, keys = self.CASES[command]
        code, out = run(tmp_path, "o", command, *args.split())
        assert code == 0
        got = [line.split(" = ")[0]
               for line in (out / "manifest.txt").read_text().splitlines()
               if not line.startswith("config.")]
        assert got == ["command", "checks", *keys.split()]
