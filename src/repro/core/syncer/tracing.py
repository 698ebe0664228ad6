"""Per-Pod creation tracing: the five phases of Fig. 8 / Table I.

Every tenant Pod's path through the system is timestamped at the phase
boundaries the paper defines:

1. DWS-Queue   — time in the downward worker queue;
2. DWS-Process — downward synchronization (create in super cluster);
3. Super-Sched — time in the super cluster until Running/Ready;
4. UWS-Queue   — time in the upward worker queue;
5. UWS-Process — upward synchronization (status back to the tenant).

Every trace is kept for the syncer's lifetime; the aggregates read the
completed :class:`PodTrace` objects directly, in completion order.
"""

from repro.telemetry import ChildCache

PHASES = ("DWS-Queue", "DWS-Process", "Super-Sched", "UWS-Queue",
          "UWS-Process")


class PodTrace:
    """Timestamps for one tenant Pod's creation round trip."""

    __slots__ = ("tenant", "pod_key", "created", "dws_dequeue", "dws_done",
                 "super_ready", "uws_dequeue", "uws_done")

    def __init__(self, tenant, pod_key, created):
        self.tenant = tenant
        self.pod_key = pod_key
        self.created = created
        self.dws_dequeue = None
        self.dws_done = None
        self.super_ready = None
        self.uws_dequeue = None
        self.uws_done = None

    @property
    def complete(self):
        return self.uws_done is not None

    @property
    def total(self):
        """End-to-end Pod creation time (the paper's headline metric)."""
        if not self.complete:
            return None
        return self.uws_done - self.created

    def phases(self):
        """Dict of phase name -> duration (None until complete)."""
        if not self.complete:
            return None
        return {
            "DWS-Queue": self.dws_dequeue - self.created,
            "DWS-Process": self.dws_done - self.dws_dequeue,
            "Super-Sched": self.super_ready - self.dws_done,
            "UWS-Queue": self.uws_dequeue - self.super_ready,
            "UWS-Process": self.uws_done - self.uws_dequeue,
        }


class TraceStore:
    """All Pod traces for one syncer.

    ``telemetry``
        optional :class:`~repro.telemetry.Telemetry` hub; completed
        traces observe ``pod_creation_seconds{tenant}`` and
        ``pod_phase_seconds{phase}`` histograms.
    """

    def __init__(self, telemetry=None):
        self._traces = {}
        # Traces in the order :meth:`mark` completed them, every phase
        # stamped: what :attr:`completed_count` and the aggregates read.
        self._completed = []
        self._creation_hists = None
        self._phase_hists = None
        if telemetry is not None:
            creation = telemetry.histogram(
                "pod_creation_seconds", "end-to-end Pod creation time",
                labels=("tenant",))
            phase = telemetry.histogram(
                "pod_phase_seconds", "Pod creation time per phase",
                labels=("phase",))
            self._creation_hists = ChildCache(
                lambda tenant: creation.labels(tenant=tenant))
            self._phase_hists = ChildCache(
                lambda name: phase.labels(phase=name))

    def begin(self, tenant, pod_key, created):
        """The Pod's trace, started at ``created`` if it has none yet (a
        replayed informer add never restarts a trace)."""
        key = (tenant, pod_key)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = PodTrace(tenant, pod_key, created)
        return trace

    def get(self, tenant, pod_key):
        return self._traces.get((tenant, pod_key))

    def mark(self, tenant, pod_key, field, now):
        trace = self._traces.get((tenant, pod_key))
        if trace is None or getattr(trace, field) is not None:
            return
        setattr(trace, field, now)
        if trace.complete:
            # Raises TypeError while an earlier phase is still unstamped
            # (``uws_done`` landed first); the trace is recorded by the
            # mark that stamps its last phase.
            phases = trace.phases()
            self._completed.append(trace)
            if self._creation_hists is not None:
                self._creation_hists[tenant].observe(trace.total)
                for phase, value in phases.items():
                    self._phase_hists[phase].observe(value)

    def completed(self):
        """The completed traces, every phase stamped, in the order their
        last phase landed: the traces :attr:`completed_count` counts."""
        return list(self._completed)

    @property
    def completed_count(self):
        return len(self._completed)

    def __len__(self):
        return len(self._traces)

    # ------------------------------------------------------------------
    # Aggregations used by the benchmark harness
    # ------------------------------------------------------------------

    def mean_phase_breakdown(self):
        """Average seconds per phase across completed traces (Fig. 8)."""
        if not self._completed:
            return {phase: 0.0 for phase in PHASES}
        sums = dict.fromkeys(PHASES, 0.0)
        for trace in self._completed:
            for phase, value in trace.phases().items():
                sums[phase] += value
        return {phase: sums[phase] / len(self._completed)
                for phase in PHASES}

    def phase_bucket_counts(self):
        """Table I: per-phase counts in five 2 s buckets, the last one
        open-ended."""
        buckets = {phase: [0] * 5 for phase in PHASES}
        for trace in self._completed:
            for phase, value in trace.phases().items():
                buckets[phase][min(int(value // 2.0), 4)] += 1
        return buckets

    def mean_creation_time_by_tenant(self):
        """Fig. 11: average Pod creation time per tenant."""
        sums = {}
        counts = {}
        for trace in self._completed:
            sums[trace.tenant] = sums.get(trace.tenant, 0.0) + trace.total
            counts[trace.tenant] = counts.get(trace.tenant, 0) + 1
        return {tenant: sums[tenant] / counts[tenant] for tenant in sums}
