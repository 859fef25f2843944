import argparse
import dataclasses
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from csv_tables import read_matrix, write_coefficient
from sqrtdom import checks, cli, formbounds, kato, krein, problems
from sqrtdom.assembly import BoundaryCondition, CoefficientSet, assemble_forms
from sqrtdom.cli import (COMMANDS, build_parser, load_config, main,
                         parse_theta, problem_from, read_config_file)
from sqrtdom.matfun import resolvent, spectral_norm
from sqrtdom.problems import Problem

NEU = BoundaryCondition.neumann()


def run(tmp_path, name, *args):
    out = tmp_path / name
    code = main([*args, "--outdir", str(out)])
    return code, out


def read_manifest(out):
    return dict(line.split(" = ", 1) for line in
                (out / "manifest.txt").read_text().splitlines())


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
                # the kernels of both are closed forms for -u'' with
                # Dirichlet at b, and verify-krein sweeps its own left ends:
                # each of these used to exit 0 and echo the key it never
                # read as if it had been used
                "kernel-dump --theta-a neumann --theta-b neumann --n 16",
                "kernel-dump --problem spike --n 16",
                "kernel-dump --theta-a neumann --coeff-q /nonexistent.csv "
                "--n 16",
                "verify-krein --theta-a 1+0.5i --n-list 8,16 --n 8",
                "verify-krein --problem spike --n-list 8,16 --n 8",
                "verify-krein --theta-b 0.7 --n-list 8,16 --n 8",
                "verify-krein --coeff-p /nonexistent.csv --n-list 8,16 --n 8",
                # an interval reads a and b (finite), a and radius
                # (half_line) or radius (full_line), and verify-krein and
                # kernel-dump run on a finite one: each of these used to
                # exit 0 and echo the key it never read
                "verify-kato --interval finite --radius 5 --n 16",
                "verify-kato --interval full_line --b 7 --n 16",
                "verify-kato --interval full_line --a 1 --n 16",
                "hypothesis-check --interval half_line --b 2 --n 8",
                "kernel-dump --radius 3 --n 8",
                "verify-krein --radius 3 --n 8 --n-list 8,16",
                # kappa-study reads n_list, not n; verify-kato reads neither
                # E, alpha nor n_list; trace-check reads only the seed: each
                # of these used to exit 0 and echo the key it never read
                "kappa-study --problem free --n-list 8,16 --n 99",
                "verify-kato --n 16 --E 5", "verify-kato --n 16 --alpha 0.3",
                "verify-kato --n 16 --n-list 8,16",
                "trace-check --problem spike", "trace-check --n 99",
                "trace-check --radius 3",
                # decay-study reads a shift grid; one shift used to get a
                # slope fitted through a single point, and a mesh too coarse
                # for the default grid used to fail after every norm
                "decay-study --n 16 --E 100", "decay-study --n 8")):
            assert run(tmp_path, str(i), *args.split())[0] == 2, args

    @pytest.mark.parametrize("args", [
        # non-finite numbers used to pass: NaN went into the dumps with
        # exit 0, or the run failed as a check (exit 1), and an infinite
        # growth threshold read bounded for any ladder
        "kernel-dump --E nan --n 8", "assemble --E nan --n 8",
        "kappa-study --problem free --n-list 4,8 --E nan",
        "kappa-study --problem free --n-list 4,8 --E inf",
        "verify-krein --E nan --n-list 8,16 --n 8",
        "assemble --interval half_line --radius inf --n 8",
        "assemble --a=-inf --n 8", "assemble --b=inf --n 8",
        "kappa-study --problem free --n-list 4,8 --growth-threshold inf",
        "kappa-study --problem free --n-list 4,8 --growth-threshold nan",
        "kappa-study --problem free --n-list 4,8 --alpha nan",
        # numpy refused a negative seed, which read as a failed check
        "trace-check --seed -1", "hypothesis-check --n 8 --seed -5",
        # a repeated level is no refinement: these used to read bounded
        "kappa-study --problem complex_full --n-list 32,32",
        "kappa-study --problem lions --n-list 8,8,8",
        "kappa-study --problem lions --n-list 16,32,32",
        "verify-krein --n-list 16,16 --n 8"])
    def test_non_finite_negative_seed_and_repeated_level(self, tmp_path,
                                                          capsys, args):
        assert run(tmp_path, "o", *args.split())[0] == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        # trace-check reads no interval: it used to be told that a finite
        # interval never reads radius
        ("trace-check --radius 3", "trace-check never reads radius"),
        ("verify-kato --interval full_line --a 1 --n 16",
         "verify-kato on a full_line interval never reads a"),
        ("kappa-study --problem lions --theta-b neumann --n-list 8,16",
         "the lions control, fixed on (0, 1), never reads theta_b")])
    def test_unread_key_names_the_run(self, tmp_path, capsys, args,
                                      message):
        assert run(tmp_path, "o", *args.split())[0] == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["0", "-2", "0.5"])
    def test_growth_threshold_below_one_is_config_error(self, tmp_path,
                                                        capsys, threshold):
        # growth is at least 1 by construction, so a ceiling below 1 used
        # to read divergent and exit 1 whatever the ladder showed
        code, _ = run(tmp_path, "o", "kappa-study", "--problem", "free",
                      "--n-list", "4,8", "--growth-threshold", threshold)
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_growth_threshold_one_is_accepted(self, tmp_path):
        code, out = run(tmp_path, "o", "kappa-study", "--problem", "free",
                        "--n-list", "4,8", "--growth-threshold", "1")
        assert code in (0, 1)
        assert read_manifest(out)["threshold"] == "1"

    def test_parser_adds_each_flag_once(self, monkeypatch):
        # one parser for every subcommand: argparse's -h, the command,
        # --config and one flag per key, where eight subparsers used to
        # re-add the same flags in 169 calls on every main call
        calls = []
        add = argparse._ActionsContainer.add_argument

        def counting(self, *args, **kwargs):
            calls.append(args)
            return add(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                            counting)
        build_parser()
        assert len(calls) <= len(cli.DEFAULTS) + 3

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_same_boundary_condition_in_other_words(self, tmp_path):
        # the lions and alias checks used to compare option text, so a
        # condition spelled differently from its default read as a change;
        # the closed-form commands take a key at its default, and the seed
        # that every benchmark invocation passes
        for i, args in enumerate((
                "kappa-study --problem lions --theta-a Dirichlet "
                "--n-list 8,16",
                "kappa-study --problem robin_complex --theta-a 1+0.5I "
                "--n-list 8,16",
                "kernel-dump --problem constant_qrs --theta-a 1+0.5I "
                "--theta-b Dirichlet --seed 3 --n 8",
                "verify-krein --n-list 8,16 --theta-a Dirichlet --theta-b 0 "
                "--seed 3 --n 8")):
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

    @pytest.mark.parametrize("text,message", [
        ("4", "0 <= Re(theta) < pi"), ("-0.5", "0 <= Re(theta) < pi"),
        ("1+zz", "cannot parse boundary parameter")])
    def test_boundary_parameter_outside_the_strip(self, text, message):
        # a parameter that parsed but lies outside the strip used to be
        # reported as one that did not parse
        args = build_parser().parse_args(["assemble", "--theta-a", text])
        with pytest.raises(cli.ConfigError) as exc:
            load_config(args)
        assert message in str(exc.value)
        assert ("cannot parse" in str(exc.value)) == (text == "1+zz")

    @pytest.mark.parametrize("args", [
        "assemble --interval half_line --radius 1e-300 --n 2",
        "verify-kato --interval half_line --radius 1e-300 --n 2",
        "kappa-study --interval half_line --radius 1e-300 --n-list 2,4",
        "decay-study --interval half_line --radius 1e-300 --n 2",
        "hypothesis-check --interval half_line --radius 1e-300 --n 2",
        # nodes a rounding step apart coincide, and a subnormal half cell
        # has no mass
        "assemble --interval half_line --radius 5e-324 --n 2",
        "assemble --interval half_line --radius 1e-323 --n 2 --theta-a "
        "neumann"])
    def test_interval_too_short_for_its_mesh(self, tmp_path, capsys, args):
        # the operator scales as 1/h^2 and overflowed: assemble wrote inf
        # into operator.csv with exit 0, and the others failed as a check,
        # as did a mesh whose nodes coincide or whose end has no mass
        with np.errstate(all="ignore"):
            code, out = run(tmp_path, "o", *args.split())
        assert code == 2
        err = capsys.readouterr().err
        assert "interval with --a 0.0 --radius" in err and "--n 2 " in err, err
        assert not list(out.glob("*.csv"))

    def test_krein_interval_too_short_is_a_config_error(self, tmp_path):
        # the closed-form commands build no problem: the finite-element
        # resolvent's guard refuses the interval
        with np.errstate(all="ignore"):
            code, out = run(tmp_path, "o", "verify-krein", "--b", "1e-300",
                            "--n-list", "8,16", "--n", "8")
        assert code == 2
        assert not list(out.glob("*.csv"))

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
    @pytest.mark.parametrize("theta_a", ["1+800i", "1-800i"])
    def test_boundary_parameter_far_from_the_real_axis(self, tmp_path,
                                                       theta_a):
        # cot(theta_a) is -i (+i) there; cos / sin overflowed to nan, which
        # assemble wrote into operator.csv with exit 0, verify-kato failed
        # on and kernel-dump reported as an overflowed quadrature
        code, out = run(tmp_path, "assemble", "assemble", "--n", "8",
                        "--theta-a", theta_a)
        assert code == 0
        assert np.all(np.isfinite(read_matrix(out / "operator.csv")))
        # the boundary term -cot(theta_a) of the left end
        assert read_matrix(out / "Bdry.csv")[0, 0] == (
            1j if theta_a == "1+800i" else -1j)
        for args in ("verify-kato --n 16", "kernel-dump --n 8"):
            code, out = run(tmp_path, args.split()[0], *args.split(),
                            "--theta-a", theta_a)
            assert code == 0, args
            assert "nan" not in (out / "manifest.txt").read_text(), args
    def test_kernel_dump_at_a_huge_shift_is_finite(self, tmp_path):
        # the boundary solution used to be a ratio of sines, which
        # overflowed to nan rows of green_robin.csv with exit 0
        code, out = run(tmp_path, "o", "kernel-dump", "--theta-a", "neumann",
                        "--E", "1e300", "--n", "8")
        assert code == 0
        for name in ("green_dirichlet", "green_robin", "sqrt_kernel"):
            table = np.loadtxt(out / f"{name}.csv", delimiter=",",
                               skiprows=1)
            assert table.shape == (81, 4) and np.all(np.isfinite(table)), name
        assert read_manifest(out)["u2_left_value"] == "1"

    @pytest.mark.parametrize("theta_a", ["neumann", "1+0.5i"])
    def test_kernel_dump_at_a_tiny_shift_is_finite(self, tmp_path, theta_a):
        # the boundary solution's guard compared 1 - exp(-2 sqrt(E)), about
        # 2 sqrt(E) near 0, with an absolute 2e-12 and exited 1 calling
        # z = -1e-30 a Dirichlet eigenvalue, though the lowest is pi^2
        code, out = run(tmp_path, "o", "kernel-dump", "--theta-a", theta_a,
                        "--E", "1e-30", "--n", "8")
        assert code == 0
        for name in ("green_dirichlet", "green_robin", "sqrt_kernel"):
            table = np.loadtxt(out / f"{name}.csv", delimiter=",",
                               skiprows=1)
            assert table.shape == (81, 4) and np.all(np.isfinite(table)), name
        assert read_manifest(out)["u2_left_value"] == "1"

    def test_verify_krein_at_a_huge_shift_is_a_config_error(self, tmp_path,
                                                            capsys):
        # the finite-element resolvent at z = -1e300 cannot be represented;
        # it used to pass its residual rule, and the run failed as a check
        # with 1e-150 in every krein_errors.csv row
        code, out = run(tmp_path, "o", "verify-krein", "--E", "1e300",
                        "--n-list", "8,16", "--n", "8")
        assert code == 2
        assert "--E 1e+300" in capsys.readouterr().err
        assert not (out / "krein_errors.csv").exists()

    @pytest.mark.parametrize("args, interval", [
        ("--b 1e-300", "--a 0.0 --b 1e-300"),
        ("--b 1e-200", "--a 0.0 --b 1e-200"),
        ("--E 1e-40", "--a 0.0 --b 1.0")])
    def test_kernel_dump_below_double_precision_is_a_config_error(
            self, tmp_path, capsys, args, interval):
        # sqrt(E) (b - a) below double precision gave a coupling denominator
        # of -inf + nan i, which the shared-spectrum guard passed: the
        # first two wrote green_robin.csv full of nan and exited 1 blaming
        # the square-root quadrature, the third exited 0
        with np.errstate(all="ignore"):
            code, out = run(tmp_path, "o", "kernel-dump", "--n", "8",
                            "--theta-a", "neumann", *args.split())
        assert code == 2
        err = capsys.readouterr().err
        assert f"a finite interval with {interval} is too short" in err, err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["verify-krein", "kernel-dump"])
    def test_shared_spectrum_is_a_config_error(self, tmp_path, capsys,
                                               command):
        # at E = 1 on [-3, 50] the quarter_pi end, cot = 1, meets
        # sqrt(E) coth(53 sqrt(E)) = 1: the run exited 1 as a failed guard
        theta = ("--theta-a", "0.7853981633974483") * (command
                                                       == "kernel-dump")
        code, out = run(tmp_path, "o", command, "--E", "1", "--a", "-3",
                        "--b", "50", *theta)
        assert code == 2
        err = capsys.readouterr().err
        assert "--E 1: z = -1 lies in the spectra of both" in err, err
        assert not list(out.glob("*.csv"))

    def test_verify_krein_reads_its_ladder_coarse_to_fine(self, tmp_path):
        # the ladder was judged in the order typed: 16,8 read
        # min_observed_order = -2 and failed rank-one convergence
        outs = {order: run(tmp_path, order, "verify-krein", "--n-list",
                           order, "--n", "8") for order in ("8,16", "16,8")}
        assert [code for code, _ in outs.values()] == [0, 0]
        manifests = {order: read_manifest(out)
                     for order, (_, out) in outs.items()}
        for order, manifest in manifests.items():
            assert manifest.pop("config.n_list") == order
            manifest.pop("config.outdir")
        assert manifests["8,16"] == manifests["16,8"]
        assert filecmp.cmp(outs["8,16"][1] / "krein_errors.csv",
                           outs["16,8"][1] / "krein_errors.csv",
                           shallow=False)

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
            # the full-triple pair has two cell blocks: the one-shot
            # identity is then checked at no shift, which is no pass
            "full_triple": lambda fact, stage: len(fact.A[0]) == 2,
            # the two-step path's second core: the composition is unchecked
            "stage_2": lambda fact, stage: stage == "stage 2 (s):",
        }
        for name, rejected in probes.items():
            def probe(R, fact, z, stage):
                if rejected(fact, stage):
                    raise kato.AdmissibilityError(f"probe at z = {z}")
                return solve_core(R, fact, z, stage)

            monkeypatch.setattr(kato, "_solve_core", probe)
            code, out = run(tmp_path, name, "verify-kato", "--problem",
                            "sawtooth", "--n", "24")
            manifest = read_manifest(out)
            assert manifest["excluded_points"] == "3", name
            assert manifest["verdict"] == "fail" and code == 1, name
            # neither identity was checked at an excluded shift
            assert manifest["failed_checks"] == (
                "factored-resolvent-identity,two-step-composition"), name

    @pytest.mark.parametrize("plant", [
        lambda forms: dataclasses.replace(forms, K1=forms.K1[::-1]),
        lambda forms: dataclasses.replace(
            forms, K3=tuple(x * (1 + 1e-6) for x in forms.K3))],
        ids=["K1_transposed", "K3_scaled"])
    def test_verify_kato_fails_on_a_planted_assembly_defect(
            self, tmp_path, monkeypatch, plant):
        # the factored perturbation is built from the coefficients, not
        # from the forms, so a defect of the assembled H breaks both
        # identities (max errors 6.9e-2 and 2.2e-8 against 1e-9)
        assemble = problems.assemble_forms
        monkeypatch.setattr(problems, "assemble_forms",
                            lambda *args: plant(assemble(*args)))
        code, out = run(tmp_path, "o", "verify-kato", "--problem", "sawtooth",
                        "--interval", "half_line", "--radius", "10",
                        "--n", "150", "--theta-a", "neumann")
        manifest = read_manifest(out)
        assert code == 1 and manifest["verdict"] == "fail"
        assert manifest["failed_checks"] == (
            "factored-resolvent-identity,two-step-composition")

    def test_verify_krein_fails_on_a_planted_denominator_defect(
            self, tmp_path, monkeypatch):
        # every Krein kernel divides by the one coupling denominator: off by
        # 1e-3 it turns the rank-one convergence order negative (-0.370)
        denominator = krein._denominator
        monkeypatch.setattr(krein, "_denominator",
                            lambda *args: denominator(*args) * (1 + 1e-3))
        code, out = run(tmp_path, "o", "verify-krein", "--n-list",
                        "64,128,256")
        manifest = read_manifest(out)
        assert code == 1 and manifest["verdict"] == "fail"
        assert manifest["failed_checks"] == "rank-one-resolvent-convergence"

    def test_verify_kato_assembles_once_and_solves_once_per_shift(
            self, tmp_path, monkeypatch):
        # both operators reach resolvent as their diagonals, each tuple
        # formed once and passed as it is
        problems, operators, bases, direct, on_base, guards = (
            [], [], [], [], [], [])

        def capture(cfg):
            problems.append(problem_from(cfg))
            return problems[-1]

        def counting_diagonals(prob):
            operators.append(diagonals(prob))
            return operators[-1]

        def counting_base(prob):
            bases.append(base_diagonals(prob))
            return bases[-1]

        def counting_resolvent(H, z):
            direct.append(next((k for k, band in enumerate(operators)
                                if H is band), None))
            on_base.append(any(H is H0 for H0 in bases))
            return resolvent(H, z)

        def counting_norm(M):
            guards.append(M.shape)
            return spectral_norm(M)

        diagonals, base_diagonals = Problem.diagonals, Problem.base_diagonals
        monkeypatch.setattr(cli, "problem_from", capture)
        monkeypatch.setattr(Problem, "diagonals", counting_diagonals)
        monkeypatch.setattr(Problem, "base_diagonals", counting_base)
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
        # the direct solves share one tuple of the operator's diagonals
        assert len(bases) == 1
        assert len({k for k in direct if k is not None}) == 1
        assert sum(k is not None for k in direct) == 3
        # both factored paths start from the one base resolvent of a shift,
        # and no factored core goes through resolvent
        assert sum(on_base) == 3 and len(direct) == 6
        # one conditioning guard per factored core: three cores per shift,
        # each on the n x n matrix that is factored, not the m x m core
        assert len(guards) == 9
        dofs = problems[0].forms.n_dof
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
        manifest = read_manifest(out)
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
        # stay real after the shift 1e2 and lie below the shift rule, which
        # the one guard applies before the cut; the study used to exit 1
        # as a failed check
        code, out = run(tmp_path, "o", "decay-study", "--problem",
                        "constant_qrs", "--n", "64", "--theta-a", "0.05")
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "--E-grid" in err
        assert not any(out.iterdir())

    def test_decay_study_failed_root_is_no_config_error(self, tmp_path,
                                                        monkeypatch, capsys):
        # sawtooth's base operator with a complex Robin end takes the Schur
        # path, whose shifted roots come from sqrtm; roots off by 1e-6
        # relative fail the residual rule.  That is no shift below the
        # spectrum: it used to be caught with the cut guard's class and
        # reported as "raise --E-grid"
        sqrtm = sla.sqrtm
        monkeypatch.setattr(sla, "sqrtm", lambda T: sqrtm(T) * (1 + 1e-6))
        code, out = run(tmp_path, "o", "decay-study", "--problem", "sawtooth",
                        "--n", "16", "--theta-a", "1+0.5i")
        assert code == 1
        err = capsys.readouterr().err
        assert "residual" in err and "configuration error" not in err

    @pytest.mark.parametrize("command", ["decay-study", "hypothesis-check"])
    @pytest.mark.parametrize("args, path", [
        (("--problem", "free"), "hermitian"),
        (("--problem", "sawtooth", "--theta-a", "neumann"), "normal"),
        (("--problem", "sawtooth", "--theta-a", "1+0.5i"), "schur")])
    def test_manifest_names_the_base_operator_path(self, tmp_path, command,
                                                   args, path):
        # which of _InvSqrtShifted's three paths factored the base operator
        code, out = run(tmp_path, "o", command, *args, "--n", "16")
        assert code == 0
        assert read_manifest(out)["base_operator_path"] == path

    @pytest.mark.parametrize("grid", ["100,10,2.9", "100,10,inf",
                                      "100,10,nan", "100,10,400",
                                      "100,inf,3"])
    def test_decay_grid_must_be_a_finite_integer_count(self, tmp_path,
                                                       capsys, grid):
        # a count of 2.9 used to be truncated to 2, and the study ran two
        # shifts without a word; a count of inf or a last shift past the
        # float range used to escape as a traceback, and an infinite factor
        # was reported as a grid below the spectrum
        code, out = run(tmp_path, "o", "decay-study", "--n", "16",
                        "--E-grid", grid)
        assert code == 2
        assert "configuration error: E_grid:" in capsys.readouterr().err
        assert not out.exists()

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
            assert read_manifest(out)["failed_checks"] == (
                "sqrt-domain-equivalence"), args

    @pytest.mark.parametrize("alpha", ["0.5", "0.25"])
    @pytest.mark.parametrize("coeffs", ["q", "q_and_r"])
    def test_kappa_study_shift_below_spectrum_is_config_error(
            self, tmp_path, coeffs, alpha, capsys):
        # a real potential well deeper than -E: the Cholesky factor of the
        # Hermitian H + E (alpha = 1/2) or the gauge power (alpha = 1/4)
        # finds it; both used to exit 1, the failed-check code.  With r = 1
        # the operator is real but not Hermitian, and its real eigenvalues
        # below zero used to reach the cut guard first and exit 1 too
        x = np.linspace(0.0, 1.0, 2001)
        with np.errstate(divide="ignore"):
            q = -np.minimum(np.abs(x - 0.5) ** -1.0, 1e4)
        qpath, rpath = tmp_path / "q.csv", tmp_path / "r.csv"
        write_coefficient(qpath, x, q)
        write_coefficient(rpath, x, np.ones_like(x))
        extra = ["--coeff-r", str(rpath)] if coeffs == "q_and_r" else []
        code, out = run(tmp_path, "o", "kappa-study", "--problem", "free",
                        "--coeff-q", str(qpath), "--n-list", "32,64",
                        "--alpha", alpha, *extra)
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

    @pytest.mark.parametrize("problem,E", [("complex_full", "1e300"),
                                           ("robin_complex", "1e200")])
    def test_kappa_study_overflowing_shift_is_config_error(
            self, tmp_path, problem, E, capsys):
        # ||H + E||_F and the residual of its root both overflow to inf, and
        # inf <= 1e-10 inf used to pass the root check: complex_full read
        # divergent (exit 1) and robin_complex bounded (exit 0) on roots
        # that were never checked
        code, out = run(tmp_path, "o", "kappa-study", "--problem", problem,
                        "--E", E, "--n-list", "16,32,64")
        assert code == 2
        assert f"--E {float(E):g}" in capsys.readouterr().err
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
        manifest = read_manifest(out)
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
        check_trudinger, calls = checks.check_trudinger, []

        def spy(w, mesh, eps):
            calls.append((len(mesh.nodes), eps))
            return check_trudinger(w, mesh, eps)

        monkeypatch.setattr(checks, "check_trudinger", spy)
        args = ["hypothesis-check", "--n", "24", "--interval", interval,
                "--radius", "4"]
        assert run(tmp_path, "o", *args)[0] == 0
        assert calls == [(25, eps) for eps in checks.TRUDINGER_EPS]

        # the verdict reads it: a right side without its 1/L term is a
        # false inequality, and the check fails on it
        def missing_inverse_length(mesh, eps):
            unit = assemble_forms(mesh, CoefficientSet.from_callables(mesh),
                                  NEU, NEU)
            return tuple(eps * k.real + m.real / eps
                         for k, m in zip(unit.K0, unit.M))

        monkeypatch.setattr(formbounds, "_trace_gram", missing_inverse_length)
        code, out = run(tmp_path, "violated", *args)
        assert code == 1
        assert read_manifest(out)["failed_checks"] == "pointwise-trace-bound"
        assert float(read_manifest(out)["min_pointwise_slack"]) < -0.05

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
        # trace-check's 6 x 6 case is the one reader of --seed
        _, out1 = run(tmp_path, "r1", "trace-check", "--seed", "1")
        _, out2 = run(tmp_path, "r2", "trace-check", "--seed", "2")
        assert not filecmp.cmp(out1 / "trace_residuals.csv",
                               out2 / "trace_residuals.csv", shallow=False)

    def test_hypothesis_check_reads_no_seed(self, tmp_path):
        # its bounds are read at their worst case, not on seeded vectors:
        # one row per (eps, j), the same whatever the seed
        _, out1 = run(tmp_path, "r1", "hypothesis-check", "--n", "24",
                      "--seed", "1")
        _, out2 = run(tmp_path, "r2", "hypothesis-check", "--n", "24",
                      "--seed", "2")
        names = sorted(path.name for path in out1.iterdir())
        assert names == sorted(path.name for path in out2.iterdir())
        for name in names:
            if name != "manifest.txt":
                assert filecmp.cmp(out1 / name, out2 / name,
                                   shallow=False), name
        echoes = ("config.seed", "config.outdir")
        assert ({k: v for k, v in read_manifest(out1).items()
                 if k not in echoes}
                == {k: v for k, v in read_manifest(out2).items()
                    if k not in echoes})
        rows = (out1 / "form_bound_margins.csv").read_text().splitlines()
        assert rows[0] == "eps,j,ratio" and len(rows) == 1 + 16 * 3


class TestDeferredImports:
    def test_only_verify_krein_loads_scipy_special(self, tmp_path):
        # a fresh interpreter, since this one has loaded it; the seven other
        # subcommands run at small sizes, and no quadrature rule is computed
        # at import
        runs = [[command, *args.split()] for command, (args, _)
                in TestManifestKeys.CASES.items() if command != "verify-krein"]
        assert len(runs) == 7
        script = (
            "import sys\n"
            "from sqrtdom import cli, matfun\n"
            "assert 'scipy.special' not in sys.modules\n"
            "assert matfun._legendre_rule.cache_info().currsize == 0\n"
            f"out, runs = sys.argv[1], {runs!r}\n"
            "for k, argv in enumerate(runs):\n"
            "    assert cli.main([*argv, '--outdir', f'{out}/{k}']) == 0\n"
            "    assert 'scipy.special' not in sys.modules, argv\n"
            "assert cli.main(['verify-krein', '--n-list', '8,16', '--n', '8',"
            " '--outdir', f'{out}/krein']) == 0\n"
            "assert 'scipy.special' in sys.modules\n")
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_no_subcommand_loads_scipy_sparse(self, tmp_path):
        # a fresh interpreter runs all eight subcommands at small sizes:
        # every band product is a slice product, so scipy.sparse never
        # loads.  kappa-study keeps a dyadic alpha, since SciPy's own
        # fractional_matrix_power, the Schur route's other powers, loads it
        runs = [[command, *args.split()] for command, (args, _)
                in TestManifestKeys.CASES.items()]
        assert len(runs) == 8 and "--alpha" not in sum(runs, [])
        script = (
            "import sys\n"
            "from sqrtdom import cli\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            f"out, runs = sys.argv[1], {runs!r}\n"
            "for k, argv in enumerate(runs):\n"
            "    assert cli.main([*argv, '--outdir', f'{out}/{k}']) == 0\n"
            "    assert 'scipy.sparse' not in sys.modules, argv\n")
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestManifestKeys:
    """Each subcommand keeps its manifest keys, the config echo aside."""

    CASES = {
        "assemble": ("--problem free --n 8",
                     "n_dof coefficient_hash mass_treatment"),
        "verify-kato": ("--n 16", "tolerance max_identity_error "
                        "max_two_step_error excluded_points verdict "
                        "failed_checks"),
        "verify-krein": ("--n-list 16,32 --n 16", "min_observed_order "
                         "boundary_row_max min_bessel_slack k0_two_method_diff "
                         "tolerance_order tolerance_k0 verdict failed_checks"),
        "kappa-study": ("--problem lions --n-list 8,16", "growth "
                        "increment_ratio kappa_extrapolated threshold "
                        "verdict calibration.lions_growth_quarter "
                        "calibration.lions_growth_half failed_checks"),
        "decay-study": ("--n 16", "slope_qr_pair slope_s_pair monotone_qr_pair "
                        "monotone_s_pair plateau_full_triple tolerance_slope "
                        "tolerance_plateau slope_multiplier_abs_r "
                        "slope_multiplier_abs_s slope_multiplier_sqrt_abs_q "
                        "base_operator_path verdict failed_checks"),
        "kernel-dump": ("--theta-a neumann --n 16",
                        "E n coupling_denominator u2_left_value"),
        "hypothesis-check": ("--n 16", "C_q C_r C_s C_0 M eps_0 "
                             "min_form_bound_slack min_pointwise_slack "
                             "sector_vertex sector_angle "
                             "accretive_shift worst_resolvent_ratio "
                             "K_norm_start K_norm_end tolerance_slack "
                             "base_operator_path verdict failed_checks"),
        "trace-check": ("", "closed_form_residual richardson_ratio_1 "
                        "richardson_ratio_2 tolerance verdict failed_checks"),
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

    def test_reported_only_checks(self, tmp_path, monkeypatch):
        # every check is judged but these six, which are written and never
        # read by a verdict; judging one (the sector) or dropping one (the
        # dumps) must shrink this list on purpose
        mappings = {}
        manifest = cli._manifest

        def spy(outdir, cfg, command, checks, extra):
            mappings[command] = dict(checks)
            return manifest(outdir, cfg, command, checks, extra)

        monkeypatch.setattr(cli, "_manifest", spy)
        for command, (args, _) in self.CASES.items():
            assert run(tmp_path, command, command, *args.split())[0] == 0
        assert set(mappings) == set(COMMANDS)
        assert {command: [name for name, ok in checks.items() if ok is None]
                for command, checks in mappings.items()
                if None in checks.values()} == {
            "assemble": ["form-matrices", "operator-matrix"],
            "hypothesis-check": ["numerical-range-sector"],
            "kernel-dump": ["green-kernel", "rank-one-corrected-green",
                            "sqrt-kernel"]}
        # a run that judges nothing writes no verdict
        for command in ("assemble", "kernel-dump"):
            assert "verdict" not in read_manifest(tmp_path / command)
