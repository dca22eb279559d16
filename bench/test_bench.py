"""Tests of the benchmark's own code.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import signal
import time

import pytest

import checkout

checkout.use_checkout()

import calibrate  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from dlbeam.concept import Atomic  # noqa: E402
from synth import generate  # noqa: E402

TRAINS = workloads.WORKLOADS["trains-narrow"]


@pytest.fixture(scope="module")
def trains():
    ready = workloads.set_up(*workloads.make_inputs(TRAINS, 1))
    return ready, verify.OracleCheck(checkout.load_oracle())


@pytest.fixture(scope="module")
def traced(trains):
    """One traced trains-narrow search: (tracer, result)."""
    ready, _ = trains
    with tracing.Tracer("test") as tracer:
        tracer.install(tracing.LOCAL_PROBES)
        with tracer.span("search"):
            result = workloads.search_local(ready, TRAINS.beam)
    return tracer, result


def test_generator_is_deterministic_per_seed():
    assert generate(7, trains=300) == generate(7, trains=300)
    assert generate(7, trains=300) != generate(8, trains=300)


def test_generated_kb_is_labelled_by_the_hidden_rule():
    ready = workloads.set_up(*generate(3, trains=200))
    oracle = verify.OracleCheck(checkout.load_oracle())
    st = ready.st
    from dlbeam.concept import And, Exists, RoleExpr
    rule = Exists(RoleExpr(st.role_names.id_of("hasCar")),
                  And((Atomic(st.class_names.id_of("ClosedCar")),
                       Atomic(st.class_names.id_of("ShortCar")))))
    assert oracle.coverage(rule, ready) == (ready.examples.pos_count, 0)
    assert ready.examples.pos_count + ready.examples.neg_count == 200


def test_verification_accepts_an_untouched_run(trains, traced):
    ready, oracle = trains
    _, result = traced
    assert verify.check(result, ready, oracle, verify.Reference.of(result)) == []


@pytest.mark.parametrize("tamper", [
    "status", "closed_list", "evaluated_twice", "coverage", "concept",
    "reference"])
def test_verification_rejects_a_tampered_run(trains, traced, tamper):
    ready, oracle = trains
    _, original = traced
    reference = verify.Reference.of(original)
    result = copy.copy(original)
    result.rht = set(original.rht)
    result.evaluated_hashes = list(original.evaluated_hashes)
    best = copy.copy(original.hypotheses[0])
    best.coverage = copy.copy(best.coverage)
    result.hypotheses = [best]
    if tamper == "status":
        result.status = "budget"
    elif tamper == "closed_list":
        result.rht.discard(next(iter(result.rht)))
    elif tamper == "evaluated_twice":
        result.evaluated_hashes.append(result.evaluated_hashes[-1])
    elif tamper == "coverage":
        best.coverage.neg_covered += 1
    elif tamper == "concept":
        # A concept the numpy engine never scored: the naive interpreter
        # finds it covers negatives too.
        best.concept = Atomic(ready.st.class_names.id_of("Train"))
    elif tamper == "reference":
        reference = verify.Reference(frozenset(list(reference.rht)[1:]),
                                     reference.best_concept, reference.best_value)
    assert verify.check(result, ready, oracle, reference) != []


def test_traced_layer_times_fit_inside_the_search(traced):
    tracer, result = traced
    m = tracing.layer_metrics(tracer, result, len(result.evaluated_hashes))
    search_s = tracer.total("search")
    phases = sum(m[k] for k in ("search.select_s", "search.expand_s",
                                "search.reduce_s", "search.evaluate_s"))
    assert 0 < phases <= search_s
    assert 0 <= m["search.upkeep_s"] <= search_s
    assert 0 < m["refine.s"] <= m["search.expand_s"]
    assert m["search.iterations"] == len(result.iterations)
    assert m["concept.sort_key_calls"] > 0 and m["refine.calls"] > 0


def test_probes_are_removed_on_close(trains):
    import dlbeam.search
    original = dlbeam.search.extract_best_nodes
    with tracing.Tracer() as tracer:
        tracer.install(tracing.LOCAL_PROBES)
        assert dlbeam.search.extract_best_nodes is not original
    assert dlbeam.search.extract_best_nodes is original


def test_a_missing_entry_point_is_not_measured_rather_than_zero(trains):
    ready, _ = trains
    probes = tracing.LOCAL_PROBES + (
        ("dlbeam.search", "no_such_function", "search.select", None),
        ("dlbeam.no_such_module", "sort_key", None, "concept.sort_key_calls"))
    with tracing.Tracer() as tracer:
        tracer.install(probes)
        with tracer.span("search"):
            result = workloads.search_local(ready, 2)
    m = tracing.layer_metrics(tracer, result, len(result.evaluated_hashes))
    assert m["search.select_s"] is None
    assert m["search.upkeep_s"] is None
    assert m["concept.sort_key_calls"] is None
    assert m["search.expand_s"] is not None


def test_workers_are_always_reaped():
    with workloads.Workers() as workers:
        procs = list(workers.procs)
        assert len(workers.endpoints) == 2
        assert all(p.poll() is None for p in procs)
    assert all(p.poll() is not None for p in procs)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    import run
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_meter_samples_during_a_call_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    meter = calibrate.Meter()
    scaled, result = meter.time("busy", _busy, 0.3)
    assert result == "done"
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # One chunk before, one after, and about one per PERIOD_S during.
    assert len(meter.chunks) >= 2 + 0.3 / calibrate.PERIOD_S / 2
    # The call waits out 0.3 s of wall time; the handler's part is not its own.
    own = meter.own["busy"][0]
    assert own == pytest.approx(0.3 - sum(meter.chunks[1:-1]), abs=0.01)
    mean_chunk = sum(meter.chunks) / len(meter.chunks)
    assert scaled == pytest.approx(own * calibrate.REFERENCE_CHUNK_S / mean_chunk)


def test_meter_leaves_a_call_that_waits_on_others_unscaled_and_unsampled():
    meter = calibrate.Meter()
    seconds, _ = meter.time("wait", _busy, 0.2, sample_during=False)
    assert len(meter.chunks) == 2
    assert seconds == meter.own["wait"][0]
    assert meter.run_scale() == pytest.approx(
        calibrate.REFERENCE_CHUNK_S * 2 / sum(meter.chunks))
