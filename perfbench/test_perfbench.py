"""Tests for the benchmark's own code: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run
import workloads
from layers import CreateTimer, SpanTracer, layer_patches, patched

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Clock:
    """A wall clock the test advances by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def test_self_time_of_nested_generators_with_delegation():
    clock = Clock()
    tracer = SpanTracer(clock=clock)

    def leaf(x):
        clock.t += 1.0
        return 2 * x

    leaf = tracer.wrap(leaf, "leaf")

    def inner():
        clock.t += 2.0
        yield "wait-1"
        clock.t += 3.0
        return leaf(5)

    inner = tracer.wrap(inner, "inner")

    def outer():
        clock.t += 4.0
        value = yield from inner()
        clock.t += 5.0
        yield "wait-2"
        return value + 1

    outer = tracer.wrap(outer, "outer")

    gen = outer()
    assert next(gen) == "wait-1"
    clock.t += 100.0  # a simulated wait: nobody is busy
    assert gen.send(None) == "wait-2"
    clock.t += 100.0
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == 11
    assert tracer.self_s == {"leaf": 1.0, "inner": 5.0, "outer": 9.0}
    assert tracer.calls == {"leaf": 1, "inner": 1, "outer": 1}
    outer_span, inner_span, leaf_span = tracer.spans
    assert (inner_span.parent, leaf_span.parent) == (0, 1)
    assert outer_span.busy_s == 15.0
    assert inner_span.busy_s == 6.0
    assert (outer_span.wall0, outer_span.wall1) == (0.0, 215.0)
    assert tracer._stack == []


def test_throw_is_forwarded_to_the_delegate_and_timed():
    clock = Clock()
    tracer = SpanTracer(clock=clock)

    def inner():
        try:
            clock.t += 1.0
            yield "a"
        except KeyError:
            clock.t += 2.0
            return "caught"

    inner = tracer.wrap(inner, "inner")

    def outer():
        result = yield from inner()
        clock.t += 4.0
        return result

    outer = tracer.wrap(outer, "outer")

    gen = outer()
    assert next(gen) == "a"
    clock.t += 50.0
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("interrupt"))
    assert stop.value.value == "caught"
    assert tracer.self_s == {"inner": 3.0, "outer": 4.0}


def test_uncaught_throw_and_close_unwind_the_span_stack():
    clock = Clock()
    tracer = SpanTracer(clock=clock)
    closed = []

    def inner():
        try:
            clock.t += 1.0
            yield "a"
            clock.t += 1.0
            yield "b"
        finally:
            closed.append(True)

    inner = tracer.wrap(inner, "inner")

    def outer():
        yield from inner()

    outer = tracer.wrap(outer, "outer")

    gen = outer()
    next(gen)
    with pytest.raises(ValueError):
        gen.throw(ValueError("boom"))
    assert closed == [True]
    assert tracer._stack == []

    gen = outer()
    next(gen)
    gen.close()
    assert closed == [True, True]
    assert tracer._stack == []
    assert tracer.self_s["inner"] == 2.0


def test_create_timer_records_each_call_and_passes_results_through():
    timer = CreateTimer()

    class Shop:
        env = object()

        def create(self, ok):
            yield "bid"
            if not ok:
                raise RuntimeError("no plant bid")
            return "ad"

    create = timer.wrap(Shop.create)
    shop = Shop()
    gen = create(shop, True)
    assert next(gen) == "bid"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "ad"
    gen = create(shop, False)
    next(gen)
    with pytest.raises(RuntimeError):
        gen.send(None)
    assert len(timer.take(shop.env)) == 2
    assert timer.take() == []


def test_patched_restores_every_entry_point():
    from repro.analysis.streaming import WorkloadSummary
    from repro.shop import vmshop
    from repro.shop.protocol import Transport

    before = (
        Transport.__dict__["call"],
        WorkloadSummary.__dict__["from_state"],
        vmshop.service_request_to_xml,
    )
    with patched(layer_patches(SpanTracer())):
        assert Transport.__dict__["call"] is not before[0]
        assert isinstance(WorkloadSummary.__dict__["from_state"], classmethod)
    after = (
        Transport.__dict__["call"],
        WorkloadSummary.__dict__["from_state"],
        vmshop.service_request_to_xml,
    )
    assert after == before


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def _paper_suite(traced: bool, golden: str = workloads.SUITE_FP):
    wl = workloads.PaperSeq()
    wl.suites = 1
    state = wl.setup(workloads.GOLDEN_SEED, 1)
    timer = CreateTimer()
    replacements = [("repro.shop.vmshop", "VMShop.create", timer.wrap)]
    if traced:
        replacements += layer_patches(SpanTracer())
    with patched(replacements):
        raw = wl.run(state)
    return wl.outcome(state, raw, timer, golden=golden)


def test_golden_gate_passes_and_tracing_does_not_perturb():
    plain = _paper_suite(traced=False)
    traced = _paper_suite(traced=True)
    assert plain["checks"] == {"accounting": True, "golden_suite_fp": True}
    keep = ("signature", "attempted", "ok", "failed", "sim_p50_s",
            "sim_p95_s", "counters")
    assert {k: plain[k] for k in keep} == {k: traced[k] for k in keep}


def test_golden_gate_fires_on_a_wrong_golden():
    outcome = _paper_suite(traced=False, golden="0" * 64)
    assert outcome["checks"]["golden_suite_fp"] is False
    rep = {"outcome": outcome}
    assert not all(run.check([rep]).values())


def test_repeat_check_fires_when_repetitions_differ():
    def rep(signature):
        return {"outcome": {
            "attempted": 1, "ok": 1, "failed": 0, "shed": 0,
            "sim_p50_s": 1.0, "sim_p95_s": 1.0, "signature": signature,
            "counters": {}, "ledger": {}, "checks": {"accounting": True},
        }}

    assert run.check([rep("a"), rep("a")])["repeat_identical"] is True
    assert run.check([rep("a"), rep("b")])["repeat_identical"] is False


# ---------------------------------------------------------------------------
# Metric names and BENCHMARK.json
# ---------------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, (unit, better) in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
            assert better in ("lower", "higher")


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads(BENCHMARK.read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.SHARDS)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
