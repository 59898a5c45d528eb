"""Tests of the benchmark's own code.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import run
import speed
import tracing
import workloads
from nilkaehler import catalog, geometry, liealg, solver
from nilkaehler.catalog import EntryValidation, ValidationReport


@pytest.fixture(scope="module")
def pointwise_1():
    return workloads.Pointwise(1)


def _bindings(pw):
    return [[dict(b) for b in fam.bindings] for fam in pw.families]


def test_same_seed_same_bindings(pointwise_1):
    assert _bindings(workloads.Pointwise(1)) == _bindings(pointwise_1)
    assert _bindings(workloads.Pointwise(2)) != _bindings(pointwise_1)
    probe, pointwise = workloads.ProbePointwise(1).parts
    assert _bindings(pointwise) == _bindings(pointwise_1) and probe.seed == 1


def test_same_seed_same_starts_and_nudges():
    a, b, c = workloads.Probe(5), workloads.Probe(5), workloads.Probe(6)
    for (_, _, _, ga, _), (_, _, _, gb, _) in zip(a.positives, b.positives):
        assert np.array_equal(ga, gb)
    assert any(not np.array_equal(ga, gc)
               for (_, _, _, ga, _), (_, _, _, gc, _) in zip(a.positives, c.positives))
    # random starts of the negatives come from the seed the probe passes on
    assert a.seed == b.seed == 5


@pytest.mark.parametrize("seed", [1, 2, 3, 17])
def test_bindings_keep_side_conditions_nonzero(seed):
    pw = workloads.Pointwise(seed)
    assert len(pw.families) == 19
    for fam in pw.families:
        assert len(fam.bindings) == workloads.BINDINGS_PER_FAMILY
        for binding in fam.bindings:
            for condition in fam.conditions:
                assert not condition.substitute(binding).is_zero(), (fam.label, binding)


def test_bindings_are_distinct(pointwise_1):
    for fam in pointwise_1.families:
        if fam.bindings[0]:
            assert len({tuple(b.items()) for b in fam.bindings}) == len(fam.bindings)


def test_forced_wrong_verdict_is_counted_without_stopping(monkeypatch, pointwise_1):
    """A false check and an exception each fail their operation; the pass
    still evaluates every operation."""
    fams = [f for f in pointwise_1.families if f.label in ("g21 J1", "g24 J1")]

    def broken_signature(metric, binding=None):
        raise RuntimeError("forced")

    monkeypatch.setattr(geometry, "signature", broken_signature)
    monkeypatch.setattr(solver, "verify_family",
                        lambda *a, **k: solver.FamilyReport(False, ("forced",), ()))
    pw = workloads.Pointwise.__new__(workloads.Pointwise)
    pw.families = fams
    outcomes, _ = pw.run()
    assert len(outcomes) == 2 * workloads.BINDINGS_PER_FAMILY
    assert all(not o.ok and o.wrong for o in outcomes)
    assert all("verify_family" in o.detail and "raised in indefinite" in o.detail
               for o in outcomes)


def test_validate_counts_unexpected_outcomes(monkeypatch):
    report = ValidationReport(entries=(
        EntryValidation("g16", (("jacobi", True), ("w2 closed", False))),
        EntryValidation("g23", (("jacobi", False), ("w3 closed", True))),
    ))
    monkeypatch.setattr(catalog, "self_validate", lambda: report)
    outcomes, _ = workloads.Validate(0).run()
    failed = sorted(o.name for o in outcomes if not o.ok)
    assert failed == ["g23: jacobi", "g23: w3 closed"]
    assert all(o.wrong for o in outcomes if not o.ok)


def test_exception_in_a_pass_is_a_failure_not_an_abort(monkeypatch):
    def boom():
        raise ValueError("forced")

    monkeypatch.setattr(catalog, "self_validate", boom)
    outcomes, metrics = run.end_to_end(workloads.Validate(0), 0.0, setup_s=1.0)
    assert [o.ok for o in outcomes] == [False]
    assert metrics["ok_ratio"]["value"] == 0.0


def test_probe_flags_a_converging_negative(monkeypatch):
    probe = workloads.Probe(3)
    probe.positives = probe.positives[:1]
    fake = solver.SearchResult("converged", ((0.0,) * 6,) * 6, 0.0, 1, 3)
    monkeypatch.setattr(solver, "newton_search", lambda *a, **k: fake)
    outcomes, stats = probe.run()
    negatives = [o for o in outcomes if o.name.startswith("negative")]
    assert len(negatives) == 7 and all(o.wrong for o in negatives)
    # the zero matrix "converges" but is no complex structure
    positive, = [o for o in outcomes if o.name.startswith("positive")]
    assert positive.wrong
    assert stats["solver.starts"] == 8


def test_tracer_wraps_names_where_they_are_looked_up():
    original = liealg.jacobi_check
    tracer = tracing.Tracer().install()
    try:
        assert catalog.jacobi_check is not original
        catalog.validate_entry(catalog.get("g25"))
    finally:
        tracer.uninstall()
    assert catalog.jacobi_check is original and liealg.jacobi_check is original
    table = tracer.table()
    assert table["liealg.jacobi_check"]["calls"] == 1
    entry = table["catalog.validate_entry"]
    assert 0.0 <= entry["self_s"] <= entry["s"]
    assert tracer.scalar["const_ops"] + tracer.scalar["param_ops"] > 0
    # self times and counted Scalar time partition the two top-level spans
    top = entry["s"] + table["catalog.get"]["s"]
    assert tracer.accounted_s(table) == pytest.approx(top, rel=1e-6)


class _OneOperation:
    def run(self):
        return [workloads.Outcome("op", True)], {}


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    _, e2e = run.end_to_end(_OneOperation(), 0.0, setup_s=1.0)
    layer = run.layer_metrics(tracing.Tracer(), [1.0], [1.0], [{}], cold_s=0.1)
    for printed, declared in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert {k: v["unit"] for k, v in printed.items()} == {
            m["name"]: m["unit"] for m in declared}


def test_scaled_seconds_follow_the_kernel():
    assert speed.scaled(3.0, speed.REFERENCE_S) == 3.0
    # a host at half speed: the kernel and the pass take twice as long
    assert speed.scaled(6.0, 2 * speed.REFERENCE_S) == pytest.approx(3.0)


def test_sampler_times_the_kernel_and_restores_the_signal():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = perf_counter() + 10 * speed.SAMPLE_INTERVAL_S
        while perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.spent >= sum(sampler.samples) > 0
    assert sampler.kernel_s() == pytest.approx(sum(sampler.samples) / len(sampler.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
