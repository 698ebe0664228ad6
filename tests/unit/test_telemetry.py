"""Unit tests for the telemetry registry, span tracer, and exporters."""

import json

import pytest

from repro.simkernel import Simulation
from repro.telemetry import (
    MetricsRegistry,
    SpanTracer,
    Telemetry,
    telemetry_of,
)
from repro.telemetry.export import (
    check_core_families,
    render_json,
    render_text,
)


@pytest.fixture
def registry():
    return MetricsRegistry(clock=lambda: 42.0)


class TestCounter:
    def test_inc(self, registry):
        counter = registry.counter("c_total").labels()
        counter.inc()
        counter.inc(2.5)
        assert registry.counter("c_total").total() == pytest.approx(3.5)

    def test_negative_inc_rejected(self, registry):
        counter = registry.counter("c_total").labels()
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_function_gauge_evaluated_at_snapshot(self, registry):
        state = {"n": 0}
        registry.gauge("g").set_function(lambda: state["n"])
        state["n"] = 7
        (series,) = [f for f in registry.snapshot()["families"]
                     if f["name"] == "g"][0]["series"]
        assert series["value"] == 7.0


class TestHistogram:
    def test_observe_and_cumulative(self, registry):
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))._solo()
        for value in (0.5, 1.5, 3.0, 10.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(15.0)
        assert hist.cumulative() == [1, 2, 3, 4]


class TestFamily:
    def test_labels_memoized_any_keyword_order(self, registry):
        family = registry.counter("f", labels=("a", "b"))
        child1 = family.labels(a="1", b="2")
        child2 = family.labels(b="2", a="1")
        assert child1 is child2

    def test_missing_label_rejected(self, registry):
        family = registry.counter("f", labels=("a", "b"))
        with pytest.raises(ValueError, match="missing label"):
            family.labels(a="1")

    def test_unknown_label_rejected(self, registry):
        family = registry.counter("f", labels=("a",))
        with pytest.raises(ValueError, match="unknown labels"):
            family.labels(a="1", zz="2")

    def test_solo_requires_no_labels(self, registry):
        family = registry.gauge("f", labels=("a",))
        with pytest.raises(ValueError):
            family.set_function(lambda: 1.0)


class TestRegistry:
    def test_factories_idempotent(self, registry):
        assert registry.counter("x", labels=("a",)) is \
            registry.counter("x", labels=("a",))

    def test_kind_conflict_rejected(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_label_conflict_rejected(self, registry):
        registry.counter("x", labels=("a",))
        with pytest.raises(ValueError, match="label mismatch"):
            registry.counter("x", labels=("b",))

    def test_snapshot_sorted_and_stamped(self, registry):
        registry.counter("zz").labels().inc()
        registry.counter("aa").labels().inc()
        snapshot = registry.snapshot()
        assert snapshot["time"] == 42.0
        assert [f["name"] for f in snapshot["families"]] == ["aa", "zz"]


class TestSpanTracer:
    def _tracer(self, context):
        return SpanTracer(clock=lambda: 1.0,
                          active_context=lambda: context["key"])

    def test_parent_is_innermost_open_span_of_same_process(self):
        context = {"key": "p1"}
        tracer = self._tracer(context)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        # Both closed: the next span has no parent.
        with tracer.span("next") as after:
            assert after.parent_id is None

    def test_processes_do_not_share_stacks(self):
        context = {"key": "p1"}
        tracer = self._tracer(context)
        outer = tracer.start("outer")
        context["key"] = "p2"
        other = tracer.start("other")
        assert other.parent_id is None
        tracer.finish(other)
        context["key"] = "p1"
        tracer.finish(outer)

    def test_tenant_inherited_from_parent(self):
        tracer = SpanTracer(clock=lambda: 0.0)
        with tracer.span("outer", tenant="acme"):
            with tracer.span("inner") as inner:
                assert inner.tenant == "acme"

    def test_error_exit_counts_as_error(self):
        tracer = SpanTracer(clock=lambda: 0.0)
        with pytest.raises(RuntimeError):
            with tracer.span("op"):
                raise RuntimeError("boom")
        assert tracer.aggregates()["op"]["errors"] == 1

    def test_ring_bounded_but_aggregates_exact(self):
        tracer = SpanTracer(clock=lambda: 0.0, retain=8)
        for _ in range(100):
            with tracer.span("op"):
                pass
        assert len(tracer.finished) == 8
        assert tracer.aggregates()["op"]["count"] == 100

    def test_registry_metrics_observed(self):
        registry = MetricsRegistry()
        tracer = SpanTracer(clock=lambda: 0.0, registry=registry)
        with tracer.span("op"):
            pass
        assert registry.get("spans_total").labels(name="op").value == 1
        assert registry.get("span_duration_seconds").labels(
            name="op").count == 1


class TestHub:
    def test_simulation_owns_a_hub(self):
        sim = Simulation()
        assert telemetry_of(sim) is sim.telemetry
        assert sim.telemetry.registry.clock() == sim.now

    def test_telemetry_of_attaches_to_stub(self):
        class Stub:
            now = 3.0

        stub = Stub()
        hub = telemetry_of(stub)
        assert telemetry_of(stub) is hub
        assert hub.registry.snapshot()["time"] == 3.0

    def test_snapshot_includes_span_aggregates(self):
        sim = Simulation()
        with sim.telemetry.span("op"):
            pass
        snapshot = sim.telemetry.snapshot()
        assert snapshot["spans"]["op"]["count"] == 1


class TestExport:
    def _snapshot(self):
        sim = Simulation()
        sim.telemetry.counter(
            "apiserver_requests_total", labels=("server", "verb")).labels(
                server="s", verb="get").inc()
        sim.telemetry.histogram("lat_seconds").labels().observe(0.5)
        with sim.telemetry.span("op"):
            pass
        return sim.telemetry.snapshot()

    def test_render_json_round_trips(self):
        snapshot = self._snapshot()
        assert json.loads(render_json(snapshot)) == snapshot

    def test_render_text_exposition_format(self):
        text = render_text(self._snapshot())
        assert '# TYPE apiserver_requests_total counter' in text
        assert 'apiserver_requests_total{server="s",verb="get"} 1' in text
        assert 'lat_seconds_count 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text

    def test_check_core_families_reports_missing_and_idle(self):
        snapshot = self._snapshot()
        problems = check_core_families(
            snapshot, families=("apiserver_requests_total", "nope"))
        assert problems == ["missing metric family: nope"]
        snapshot["families"][0]["series"][0]["value"] = 0
        problems = check_core_families(
            snapshot, families=("apiserver_requests_total",))
        assert problems == [
            "metric family has no activity: apiserver_requests_total"]
