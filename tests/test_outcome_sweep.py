"""A seeded sweep of the subcommands over moderate scales: every run ends in
one of the three outcomes the exit code names, and its files say the same.

Each run draws its options from one generator per subcommand: n from
``NS``, an interval length log-uniform in [1e-3, 1e2] placed at a left end
in [-3, 3] (a finite interval, a half line of that radius or the full line
of half of it), E log-uniform in [1e-3, 1e4], a family and a left end.
Only the options a subcommand reads are set.  The outcomes:

- no exception escapes ``cli.main``;
- exit 0 writes only finite numeric CSV cells;
- exit 1 writes a manifest whose ``failed_checks`` names a check, with
  ``verdict = fail``;
- exit 2 writes no CSV.

kappa-study's manifest keeps its study's verdict, ``bounded`` or
``divergent``, under ``verdict``, which the benchmark's reference pins, so
its failed runs are read by ``failed_checks`` alone.  The 210 runs take
about 3 s on a 2-core x86-64 host with one BLAS thread.
"""

import math

import numpy as np
import pytest

from sqrtdom.cli import main

NS = (4, 8, 16, 33, 48)
FAMILIES = ("free", "complex_p", "constant_qrs", "complex_constant",
            "mixed_sign", "sawtooth", "spike")
ENDS = ("dirichlet", "neumann", "1+0.5i")
# runs per subcommand: the cheap ones more, so the sweep stays near 3 s
RUNS = {"assemble": 40, "verify-kato": 30, "verify-krein": 20,
        "kernel-dump": 40, "kappa-study": 40, "decay-study": 20,
        "hypothesis-check": 20}


def number(x):
    return format(float(x), ".17g")


def draw(rng, command):
    """One run's argument list for ``command``."""
    n = str(rng.choice(NS))
    length = 10.0 ** rng.uniform(-3.0, 2.0)
    a = rng.uniform(-3.0, 3.0)
    E = number(10.0 ** rng.uniform(-3.0, 4.0))
    end = str(rng.choice(ENDS))
    ladder = ",".join(map(str, sorted(rng.choice(NS, 2, replace=False))))
    finite = ["--a", number(a), "--b", number(a + length)]
    interval = {"finite": ["--interval", "finite", *finite],
                "half_line": ["--interval", "half_line", "--a", number(a),
                              "--radius", number(length)],
                "full_line": ["--interval", "full_line", "--radius",
                              number(length / 2)]}[
        rng.choice(["finite", "half_line", "full_line"])]
    problem = ["--problem", str(rng.choice(FAMILIES)), *interval,
               "--theta-a", end]
    return {"assemble": [*problem, "--n", n, "--E", E],
            "verify-kato": [*problem, "--n", n],
            "verify-krein": [*finite, "--n", n, "--n-list", ladder, "--E", E],
            "kernel-dump": [*finite, "--n", n, "--E", E, "--theta-a", end],
            "kappa-study": [*problem, "--n-list", ladder, "--E", E,
                            "--alpha", str(rng.choice([0.25, 0.5]))],
            "decay-study": [*problem, "--n", n, "--E-grid", f"{E},10,3"],
            "hypothesis-check": [*problem, "--n", n]}[command]


def non_finite_cells(path):
    """The numeric cells of one CSV that are not finite."""
    bad = []
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:  # a label: a theta, a path or a verdict
                continue
            if not math.isfinite(value):
                bad.append(cell)
    return bad


def manifest(out):
    return dict(line.split(" = ", 1) for line in
                (out / "manifest.txt").read_text().splitlines())


@pytest.mark.parametrize("command", sorted(RUNS))
def test_every_outcome_is_what_its_exit_code_says(tmp_path, command):
    rng = np.random.default_rng(sorted(RUNS).index(command))
    for k in range(RUNS[command]):
        argv = [command, *draw(rng, command)]
        out = tmp_path / str(k)
        where = " ".join(argv)
        try:
            with np.errstate(all="ignore"):
                code = main([*argv, "--outdir", str(out)])
        except Exception as exc:  # named with the run that raised it
            pytest.fail(f"{where} raised {exc!r}")
        csvs = sorted(out.glob("*.csv"))
        assert code in (0, 1, 2), where
        if code == 0:
            bad = {p.name: cells for p in csvs
                   if (cells := non_finite_cells(p))}
            assert not bad, (where, bad)
        elif code == 1:
            assert (out / "manifest.txt").exists(), where
            entries = manifest(out)
            assert entries["failed_checks"] not in ("", "none"), where
            # kappa-study keeps its study's reading under ``verdict``: the
            # open case that ROADMAP's outcome-sweep item and a CHANGES.md
            # FOUND record; drop this exemption once that reading has its
            # own key
            if command != "kappa-study":
                assert entries["verdict"] == "fail", where
        else:
            assert not csvs, where
