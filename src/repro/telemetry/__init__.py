"""Unified telemetry: metrics registry + span tracer (DESIGN.md §11).

One :class:`Telemetry` hub per simulation bundles a
:class:`~repro.telemetry.registry.MetricsRegistry` and a
:class:`~repro.telemetry.spans.SpanTracer`, both driven by the
simulation clock so every export is deterministic per seed.  The
simulation kernel constructs the hub; components reach it through
:func:`telemetry_of`, which also lazily attaches a hub to bare/stub
simulations used in unit tests.

This package imports nothing from the rest of ``repro`` — the clock and
active-process accessors are injected — so the kernel can own a hub
without a layering cycle.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NOOP,
)
from .spans import Span, SpanTracer

#: Metric families every instrumented run must expose; the tier-1
#: telemetry smoke (scenarios/smoke/telemetry_core.yaml) asserts these
#: appear in the JSON export with non-zero activity.
CORE_FAMILIES = (
    "apiserver_requests_total",
    "etcd_ops_total",
    "workqueue_adds_total",
    "informer_events_total",
    "syncer_items_total",
    "scheduler_binds_total",
    "kubelet_pods_started_total",
    "spans_total",
)


class Telemetry:
    """Per-simulation metrics registry + span tracer."""

    def __init__(self, sim, enabled=True):
        self.sim = sim
        self.enabled = enabled
        self.registry = MetricsRegistry(
            clock=lambda: sim.now, enabled=enabled)
        self.tracer = SpanTracer(
            clock=lambda: sim.now,
            active_context=lambda: getattr(sim, "active_process", None),
            registry=self.registry, enabled=enabled)

    # Shorthand factories so call sites read `telemetry.counter(...)`.

    def counter(self, name, help="", labels=()):
        return self.registry.counter(name, help, labels)

    def gauge(self, name, help="", labels=()):
        return self.registry.gauge(name, help, labels)

    def histogram(self, name, help="", labels=(), buckets=None):
        return self.registry.histogram(name, help, labels, buckets=buckets)

    def span(self, name, tenant="", **attrs):
        return self.tracer.span(name, tenant=tenant, **attrs)

    def snapshot(self):
        """Deterministic combined export: metric families + exact span
        aggregates (raw span objects carry run-dependent ids and are
        deliberately excluded)."""
        out = self.registry.snapshot()
        out["spans"] = self.tracer.aggregates()
        return out


def telemetry_of(sim):
    """The simulation's telemetry hub, attaching one if absent.

    The kernel's :class:`~repro.simkernel.loop.Simulation` constructs a
    hub in ``__init__``; this helper makes instrumentation safe against
    bare stand-in simulations in unit tests (anything with a ``now``
    attribute works).
    """
    hub = getattr(sim, "telemetry", None)
    if hub is None:
        hub = Telemetry(sim)
        try:
            sim.telemetry = hub
        except AttributeError:
            pass  # slotted stub; fall back to a fresh hub per call
    return hub


__all__ = [
    "CORE_FAMILIES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP",
    "Span",
    "SpanTracer",
    "Telemetry",
    "telemetry_of",
]
