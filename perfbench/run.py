"""Benchmark of sqrtdom: time to a checked verdict on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload decay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload (see ``workloads.py``) is a list of ``sqrtdom`` CLI
invocations, driven in-process through ``sqrtdom.cli.main`` with BLAS pinned
to one thread.  Every invocation's exit code and manifest are checked against
``reference.json``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs an untimed warm-up pass, then alternates
untraced and traced passes, and reports the per-layer metrics of
``tracing.py`` plus the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Outputs of the invocations and
the span file go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import Tracer
from verdicts import load_reference, mismatches, read_manifest
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail

UNITS = {"setup_s": "s", "run_s": "s", "verdict_p50_s": "s",
         "verdict_tail_s": "s", "peak_rss_mb": "MB"}


def pin_threads() -> None:
    """One BLAS thread; set before numpy loads, since BLAS reads it then."""
    os.environ.update({var: "1" for var in THREAD_VARS})


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall time of ``import sqrtdom.cli`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls and rounds to 50 ms steps
        subprocess.run([sys.executable, "-c", "import sqrtdom.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns ``(value, percentile)``.  When that percentile would not lie
    above the median (fewer than 2 * TAIL_BEYOND + 1 samples), the maximum
    is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_invocation(main, argv, outdir: Path) -> tuple[int | None, float]:
    """Call the CLI once; returns (exit code or None if it raised, seconds)."""
    start = time.perf_counter()
    try:
        code = main([*argv, "--outdir", str(outdir)])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception:  # counted as a failed invocation, reported below
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start


def run_pass(main, workload, seed: int, tracer=None):
    """One pass over the workload's invocations.

    Returns ``(wall seconds, per-invocation seconds, outcomes)`` with one
    ``(exit code, manifest or None)`` per invocation, read after the timed
    loop.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    calls, times = [], []
    start = time.perf_counter()
    for argv in workload.invocations:
        outdir = Path(tempfile.mkdtemp(dir=tmp))
        if tracer is not None:
            tracer.invocation += 1
        code, seconds = run_invocation(main, [*argv, "--seed", str(seed)],
                                       outdir)
        calls.append((code, outdir))
        times.append(seconds)
    wall = time.perf_counter() - start

    outcomes = []
    for code, outdir in calls:
        path = outdir / "manifest.txt"
        outcomes.append((code, read_manifest(path) if path.is_file() else None))
        shutil.rmtree(outdir)
    return wall, times, outcomes


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
        lapack = f"{deps['lapack']['name']} {deps['lapack']['version']}"
    except (TypeError, KeyError):  # numpy without the dict form
        blas = lapack = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "lapack": lapack,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha(), "seed": seed}


def import_cli():
    """Import ``sqrtdom.cli`` from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import sqrtdom.cli

    if not Path(sqrtdom.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"sqrtdom imported from {sqrtdom.cli.__file__}, "
                           f"not from {SRC}")
    return sqrtdom.cli


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed last."""
    workload = WORKLOADS[name]
    expected = load_reference()["workloads"][name]
    if [tuple(e["argv"]) for e in expected] != list(workload.invocations):
        raise RuntimeError(f"reference.json does not match workload {name!r}; "
                           "run perfbench/record_reference.py")
    passes = max(1, round(seconds / workload.nominal_s))
    setup = [] if trace else measure_setup()
    cli = import_cli()
    env = environment(seed)

    tracer = None
    if trace:
        tracer = Tracer()
        # the first pass of a process runs slower (heap growth, first calls);
        # it is checked but not timed, so it cannot bias the overhead
        kinds = [None] + [k % 2 == 1 for k in range(max(2, passes - 1))]
    else:
        kinds = [False] * passes
    walls = {False: [], True: []}
    verdict_times, failures, attempted = [], [], 0
    for traced in kinds:
        if traced:
            tracer.install()
        try:
            wall, times, outcomes = run_pass(cli.main, workload, seed,
                                             tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced is not None:
            walls[traced].append(wall)
        if traced is False:
            verdict_times += times
        for argv, ref, (code, manifest) in zip(workload.invocations, expected,
                                               outcomes):
            problems = mismatches(ref, code, manifest)
            if problems:
                failures.append((" ".join(argv), problems))
        attempted += len(outcomes)

    for argv, problems in failures:
        print(f"FAILED {argv}: {'; '.join(problems)}", file=sys.stderr)
    print(f"env = {json.dumps(env, sort_keys=True)}")
    print(f"{name}: {len(kinds)} passes, {attempted} invocations, "
          f"{len(failures)} failed, fail_frac = {len(failures) / attempted:g}")

    if trace:
        n_traced = len(walls[True])
        layer = tracer.layer_metrics(passes=n_traced)
        layer["trace.overhead_s"] = (statistics.median(walls[True])
                                     - statistics.median(walls[False]))
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(span_file)
        print(f"{len(tracer.spans)} spans written to {span_file}")
        metrics = {key: {"value": value, "unit": layer_unit(key)}
                   for key, value in layer.items()}
        for key, value in layer.items():
            print(f"{name}  {key:<40} {value:12.6g} {layer_unit(key)}")
    else:
        tail_value, tail_pct = tail(verdict_times)
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(walls[False]),
            "verdict_p50_s": statistics.median(verdict_times),
            "verdict_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {"setup_s": f"median of {len(setup)} fresh imports",
                 "run_s": f"median of {len(walls[False])} passes",
                 "verdict_p50_s": f"median of {len(verdict_times)} verdicts",
                 "verdict_tail_s": f"p{tail_pct:.1f} of {len(verdict_times)} "
                                   "verdicts",
                 "peak_rss_mb": "peak resident set of this process"}
        metrics = {key: {"value": value, "unit": UNITS[key]}
                   for key, value in values.items()}
        for key, value in values.items():
            print(f"{name}  {key:<15} {value:12.6g} {UNITS[key]:<3} "
                  f"({notes[key]})")
        print(f"{name}  {'fail_frac':<15} {len(failures) / attempted:12.6g} 1   "
              f"({len(failures)} of {attempted} invocations)")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def layer_unit(key: str) -> str:
    if key.endswith(".calls"):
        return "count"
    if key.endswith("_s"):
        return "s"
    if key.endswith(".bytes"):
        return "B"
    return "1"  # n_exp and excluded_frac are pure numbers


def bench_all(args) -> dict:
    """Every workload, each in its own process so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{key}": value for key, value in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sqrtdom" / "cli.py").is_file():
        print(f"no sqrtdom sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    if args.workload == "all":
        result = bench_all(args)
    else:
        result = bench(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
