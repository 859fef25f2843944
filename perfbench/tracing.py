"""Per-layer tracing of ``sqrtdom`` from outside the package.

The layers are the package's modules.  ``Tracer.install`` replaces each
listed public function, at every module binding that refers to it (for
example ``spectral_norm`` is bound in ``matfun``, ``kato``, ``sectorial`` and
``cli``), with a wrapper that records a span; ``Tracer.uninstall`` puts the
original objects back.  Spans stay in memory until the run writes them out.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Private helpers are not wrapped, so their time is self
time of the public caller (``domains._banded_power`` counts towards
``domains.sqrt_domain_kappa``).
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# module -> public functions wrapped as that layer's spans
LAYERS = {
    "matfun": ("resolvent", "sqrt_db", "frac_power_quad", "spectral_norm",
               "trace_det_check"),
    "kato": ("build_factorization", "kato_K", "perturbed_resolvent",
             "verify_identity", "decay_profile"),
    "domains": ("sqrt_domain_kappa", "matrix_power", "refinement_study",
                "thmA1_decay"),
    "krein": ("krein_resolvent", "sqrt_kernel", "bessel_bound_check",
              "bessel_k0_quad", "green_kernel_dirichlet"),
    "assembly": ("build_mesh", "assemble_forms", "orthonormalize",
                 "w12_norm_matrix"),
    "problems": ("make_problem", "lions_operator"),
    "formbounds": ("locunif_norms", "check_form_bound", "check_trudinger"),
    "sectorial": ("numerical_range_hull", "check_m_accretive", "safe_shift"),
    "csvio": ("write_rows", "write_matrix", "write_kernel", "write_manifest"),
}
# the dense kernels whose scaling exponent is reported
SCALED = ("matfun.resolvent", "matfun.sqrt_db", "matfun.frac_power_quad",
          "matfun.spectral_norm", "matfun.trace_det_check", "kato.kato_K",
          "domains.sqrt_domain_kappa")
TWO_STEP_CALL = "kato.TwoStepResolvent.call"
# csvio functions that open and write the file themselves (the others go
# through write_rows), so each byte is counted once
BYTE_WRITERS = ("csvio.write_rows", "csvio.write_manifest")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    invocation: int      # running number of the CLI invocation
    size: int | None     # leading matrix dimension of the call, if any


def leading_dim(args) -> int | None:
    """Leading dimension of the first matrix-like positional argument."""
    for arg in args:
        shape = getattr(arg, "shape", None)
        if shape is None:
            shape = getattr(getattr(arg, "H", None), "shape", None)
        if shape is not None and len(shape) == 2:
            return int(shape[0])
    return None


def _assign(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the coverage of its direct children."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def loglog_slope(points) -> float | None:
    """Least-squares slope of log(y) against log(x); None if undetermined."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 3:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class Tracer:
    """Records spans around the calls into each layer of ``sqrtdom``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        self.invocation = 0
        self.shifts_tried = 0
        self.shifts_excluded = 0
        self.bytes_written = 0
        self.subcommands: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so that each call records a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent,
                                         self.invocation, leading_dim(args))
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _count_shifts(self, args, result) -> None:
        self.shifts_excluded += len(result["excluded"])
        self.shifts_tried += len(result["excluded"]) + len(result["records"])

    def _count_bytes(self, args, result) -> None:
        self.bytes_written += os.path.getsize(args[0])

    # -- installing --------------------------------------------------------

    def _patch(self, owner, key, value, original) -> None:
        _assign(owner, key, value)
        self._patches.append((owner, key, original))

    def install(self, package: str = "sqrtdom") -> None:
        """Wrap every listed function at each binding in ``package``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == package or name.startswith(package + "."))]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"{package}.{layer}"]
            for fname in functions:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                hook = None
                if name == "kato.verify_identity":
                    hook = self._count_shifts
                elif name in BYTE_WRITERS:
                    hook = self._count_bytes
                traced = self.wrap(name, original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, traced, original)
        kato = sys.modules[f"{package}.kato"]
        call = kato.TwoStepResolvent.__call__
        self._patch(kato.TwoStepResolvent, "__call__",
                    self.wrap(TWO_STEP_CALL, call), call)
        # cli.main dispatches through this table, not the module bindings
        commands = sys.modules[f"{package}.cli"].COMMANDS
        self.subcommands = list(commands)
        for sub, fn in list(commands.items()):
            self._patch(commands, sub, self.wrap(f"cli.{sub}", fn), fn)

    def uninstall(self) -> None:
        """Put every original binding back, newest patch first."""
        while self._patches:
            _assign(*self._patches.pop())

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")

    def layer_metrics(self, passes: int = 1) -> dict[str, float]:
        """Per-layer metrics, per traced pass.

        ``<layer>.<function>.calls`` and ``.self_s`` for every wrapped
        function, ``.n_exp`` for the dense kernels (0 when fewer than three
        distinct sizes were seen), the share of shifts ``verify_identity``
        rejected, the bytes csvio wrote and ``cli.<subcommand>.self_s``.
        """
        spans = [s for s in self.spans if s is not None]
        calls = defaultdict(int)
        busy = defaultdict(float)
        by_size = defaultdict(lambda: defaultdict(list))
        for span, own in zip(spans, self_times(spans)):
            calls[span.name] += 1
            busy[span.name] += own
            if span.size is not None:
                by_size[span.name][span.size].append(own)

        out: dict[str, float] = {}
        names = [f"{layer}.{f}" for layer, fs in LAYERS.items() for f in fs]
        names.append(TWO_STEP_CALL)
        for name in names:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = busy[name] / passes
            if name in SCALED:
                slope = loglog_slope(
                    (size, statistics.median(times))
                    for size, times in by_size[name].items())
                out[f"{name}.n_exp"] = 0.0 if slope is None else slope
        out["kato.verify_identity.excluded_frac"] = (
            self.shifts_excluded / self.shifts_tried
            if self.shifts_tried else 0.0)
        out["csvio.bytes"] = self.bytes_written / passes
        # orchestration inside each subcommand, e.g. the two-step loop
        for sub in self.subcommands:
            out[f"cli.{sub}.self_s"] = busy[f"cli.{sub}"] / passes
        return out
