"""The benchmark's workloads: fixed lists of ``sqrtdom`` CLI invocations.

Each workload is a closed loop with one client: the invocations run one
after the other in one process, each waiting for the previous verdict.  The
workload seed is appended to every invocation as ``--seed``; everything else
about the inputs is fixed here, so the same seed gives the same inputs.

``nominal_s`` is the wall time of one pass on a 2-core x86-64 box with
OpenBLAS pinned to one thread.  It only turns ``--seconds`` into a whole
number of passes, so that both sides of a comparison run the same passes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    nominal_s: float
    invocations: tuple[tuple[str, ...], ...]


def _argv(line: str) -> tuple[str, ...]:
    return tuple(line.split())


# Shift-decay studies.  spectral_norm (power iteration, about 1450 calls per
# study) and sqrt_db (the per-shift root of sawtooth's non-Hermitian base,
# complex p) carry almost all of the time; ROADMAP item 1 acts here.  The
# sizes make the three studies cost about the same, so that the median
# verdict is a typical study rather than the boundary between two kinds.
DECAY = Workload(
    name="decay",
    nominal_s=10.0,
    invocations=tuple(_argv(line) for line in (
        "decay-study --problem constant_qrs --n 96",
        "decay-study --problem spike --interval half_line --radius 4 --n 104",
        "decay-study --problem sawtooth --n 28",
    )),
)

# Self-calibrated kappa studies on the 32..256 ladder.  Every invocation
# repeats the same banded lions calibration (work shared across inputs);
# robin_complex at alpha 1/4 takes the dense quadrature path that ROADMAP
# item 2 leaves alone.  No spectral_norm call happens here.
DICHOTOMY = Workload(
    name="dichotomy",
    nominal_s=15.0,
    invocations=tuple(_argv(line) for line in (
        "kappa-study --problem lions --alpha 0.5 --n-list 32,64,128,256",
        "kappa-study --problem complex_full --alpha 0.5 --n-list 32,64,128,256",
        "kappa-study --problem robin_complex --alpha 0.25 "
        "--n-list 32,64,128,256",
    )),
)


def _identity_invocations() -> tuple[tuple[str, ...], ...]:
    families = ("constant_qrs", "complex_constant", "mixed_sign", "sawtooth",
                "spike")
    intervals = ("finite", "half_line --radius 10", "full_line --radius 10")
    left_bcs = ("dirichlet", "neumann", "1+0.5i")
    lines = []
    for i, (family, interval) in enumerate(
            (f, iv) for f in families for iv in intervals):
        lines.append(f"verify-kato --problem {family} --interval {interval} "
                     f"--n 150 --theta-a {left_bcs[i % 3]}")
    lines += [
        "verify-krein --n-list 64,128,256",
        "kernel-dump --theta-a 1+0.5i --n 64 --E 25",
        "kernel-dump --theta-a neumann --n 96 --E 100",
        "hypothesis-check --problem mixed_sign --interval full_line --radius 8",
        "hypothesis-check --problem sawtooth --n 96 --theta-a neumann",
        "assemble --problem sawtooth --n 128 --theta-a neumann",
        "trace-check",
    ]
    return tuple(_argv(line) for line in lines)


# Many short verdicts: dense LU resolvents, Krein kernels and CSV output.
# Its spectral_norm calls are a few admissibility guards on 450x450 cores,
# where power iteration beats an exact SVD, so a norm change that speeds up
# decay can slow this workload, and this workload shows it.
IDENTITY = Workload(
    name="identity",
    nominal_s=15.0,
    invocations=_identity_invocations(),
)

WORKLOADS = {w.name: w for w in (DECAY, DICHOTOMY, IDENTITY)}
