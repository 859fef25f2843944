"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys

import pytest

import run
from tracing import Span, Tracer, covered_length, loglog_slope, self_times
from verdicts import ATOL, load_reference, mismatches, read_manifest


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_synthetic_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 3.0

    def outer():
        clock.now += 2.0
        traced_inner()
        clock.now += 1.0
        traced_inner()

    traced_inner = tracer.wrap("matfun.sqrt_db", inner)
    tracer.wrap("matfun.resolvent", outer)()

    assert [s.name for s in tracer.spans] == [
        "matfun.resolvent", "matfun.sqrt_db", "matfun.sqrt_db"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert self_times(tracer.spans) == [3.0, 3.0, 3.0]
    metrics = tracer.layer_metrics()
    assert metrics["matfun.resolvent.calls"] == 1
    assert metrics["matfun.resolvent.self_s"] == 3.0
    assert metrics["matfun.sqrt_db.calls"] == 2
    assert metrics["matfun.sqrt_db.self_s"] == 6.0


def test_self_time_subtracts_child_coverage_only_once():
    spans = [Span("a", 0.0, 10.0, -1, 0, None),
             Span("b", 1.0, 3.0, 0, 0, None),
             Span("c", 1.5, 2.5, 1, 0, None),   # grandchild: b's, not a's
             Span("b", 5.0, 6.0, 0, 0, None)]
    assert self_times(spans) == [7.0, 1.0, 1.0, 1.0]
    assert covered_length([(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)], 0.0, 10.0) == 4.0


def test_scaling_exponent_needs_three_sizes():
    assert loglog_slope([(n, 2.0 * n ** 3) for n in (32, 64, 128)]) == \
        pytest.approx(3.0)
    assert loglog_slope([(32, 1.0), (64, 8.0)]) is None


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 31)])
    assert value == 20.0 and pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    # with 20 samples the 10th from the top is not above the median
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0)


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _bindings():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "sqrtdom"
            for attr, value in vars(module).items() if callable(value)}


def _outputs(path):
    """File contents, without the manifest line that echoes the outdir."""
    return {p.name: b"".join(line for line in p.read_bytes().splitlines(True)
                             if not line.startswith(b"config.outdir"))
            for p in sorted(path.iterdir())}


def test_traced_calls_return_identical_results_and_bindings_restored(
        cli, tmp_path):
    kato = sys.modules["sqrtdom.kato"]
    before = _bindings()
    commands = dict(cli.COMMANDS)
    two_step_call = kato.TwoStepResolvent.__call__
    argv = ["verify-kato", "--problem", "sawtooth", "--n", "24",
            "--theta-a", "1+0.5i"]

    assert cli.main([*argv, "--outdir", str(tmp_path / "plain")]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        assert kato.spectral_norm is not before[("sqrtdom.kato",
                                                 "spectral_norm")]
        assert cli.main([*argv, "--outdir", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()

    assert _outputs(tmp_path / "plain") == _outputs(tmp_path / "traced")
    names = {s.name for s in tracer.spans}
    assert {"cli.verify-kato", "kato.TwoStepResolvent.call",
            "matfun.spectral_norm", "matfun.resolvent",
            "kato.verify_identity", "csvio.write_rows"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["kato.verify_identity.excluded_frac"] == 0.0
    assert metrics["csvio.bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "traced").iterdir())
    assert all(before[key] is value for key, value in _bindings().items())
    assert cli.COMMANDS == commands
    assert kato.TwoStepResolvent.__call__ is two_step_call


def _entry():
    return {"exit": 0, "seeded": ["min_form_bound_slack"],
            "values": {"verdict": "pass", "slope_qr_pair": "-0.5",
                       "max_identity_error": "2.6e-14",
                       "min_form_bound_slack": "48667.2"}}


def test_verdict_check_accepts_reference_within_tolerance():
    manifest = dict(_entry()["values"], slope_qr_pair="-0.5005",
                    max_identity_error=repr(2.6e-14 + ATOL / 2),
                    min_form_bound_slack="1.0", extra_health_field="7")
    assert mismatches(_entry(), 0, manifest) == []


@pytest.mark.parametrize("change", [
    {"slope_qr_pair": "-0.51"},
    {"verdict": "fail"},
    {"max_identity_error": "1e-11"},
])
def test_verdict_check_flags_tampered_value(change):
    manifest = dict(_entry()["values"], **change)
    (problem,) = mismatches(_entry(), 0, manifest)
    assert problem.startswith(next(iter(change)))


@pytest.mark.parametrize("code", [1, 2, 3, None])
def test_verdict_check_flags_wrong_exit_code(code):
    assert mismatches(_entry(), code, dict(_entry()["values"])) == [
        f"exit code {code}, expected 0"]


def test_verdict_check_flags_missing_manifest():
    assert mismatches(_entry(), 0, None) == ["no manifest written"]


def test_reference_matches_this_checkout(cli, tmp_path):
    (expected,) = [e for e in load_reference()["workloads"]["identity"]
                   if e["argv"] == ["trace-check"]]
    code, _ = run.run_invocation(cli.main, ["trace-check", "--seed", "11"],
                                 tmp_path)
    assert mismatches(expected, code,
                      read_manifest(tmp_path / "manifest.txt")) == []
