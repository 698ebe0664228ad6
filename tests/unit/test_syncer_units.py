"""Unit tests for syncer conversion, tracing, and the VC CRD helpers."""

import pytest

from repro.core.crd import (
    cluster_prefix,
    make_virtual_cluster,
    short_uid_hash,
    super_namespace,
)
from repro.core.syncer.conversion import (
    ANNOTATION_TENANT_NAME,
    ANNOTATION_TENANT_NAMESPACE,
    ANNOTATION_VC,
    is_managed,
    specs_equivalent,
    super_key_for,
    tenant_key,
    tenant_origin,
    to_super,
    to_super_pod,
)
from repro.core.syncer.tracing import PHASES, PodTrace, TraceStore
from repro.objects import Pod, make_pod


@pytest.fixture
def vc():
    vc = make_virtual_cluster("acme")
    vc.metadata.uid = "uid-0001"
    return vc


class TestNamingScheme:
    def test_short_uid_hash_is_stable(self):
        assert short_uid_hash("x") == short_uid_hash("x")
        assert len(short_uid_hash("x")) == 6

    def test_cluster_prefix_combines_name_and_hash(self, vc):
        prefix = cluster_prefix(vc)
        assert prefix.startswith("acme-")
        assert prefix == f"acme-{short_uid_hash('uid-0001')}"

    def test_different_vcs_get_different_prefixes(self, vc):
        other = make_virtual_cluster("acme")
        other.metadata.uid = "uid-0002"
        assert cluster_prefix(vc) != cluster_prefix(other)

    def test_super_namespace(self, vc):
        assert super_namespace(vc, "default") == \
            f"{cluster_prefix(vc)}-default"

    def test_super_key_for_namespaced(self, vc):
        assert super_key_for(Pod, vc, "ns/p") == \
            f"{cluster_prefix(vc)}-ns/p"


class TestTranslation:
    def test_to_super_prefixes_namespace(self, vc):
        pod = make_pod("web", namespace="prod")
        translated = to_super(pod, vc)
        assert translated.metadata.namespace == super_namespace(vc, "prod")
        assert translated.metadata.name == "web"

    def test_to_super_strips_server_fields(self, vc):
        pod = make_pod("web")
        pod.metadata.uid = "tenant-uid"
        pod.metadata.resource_version = "42"
        pod.metadata.creation_timestamp = 1.0
        translated = to_super(pod, vc)
        assert translated.metadata.uid is None
        assert translated.metadata.resource_version is None
        assert translated.metadata.creation_timestamp is None

    def test_to_super_records_origin(self, vc):
        pod = make_pod("web", namespace="prod")
        pod.metadata.uid = "tenant-uid"
        translated = to_super(pod, vc)
        annotations = translated.metadata.annotations
        assert annotations[ANNOTATION_VC] == vc.key
        assert annotations[ANNOTATION_TENANT_NAMESPACE] == "prod"
        assert annotations[ANNOTATION_TENANT_NAME] == "web"
        assert is_managed(translated)

    def test_to_super_pod_clears_binding_and_status(self, vc):
        pod = make_pod("web", node_name="tenant-vnode")
        pod.status.phase = "Running"
        translated = to_super_pod(pod, vc)
        assert translated.spec.node_name is None
        assert translated.status.phase == "Pending"

    def test_tenant_origin_round_trip(self, vc):
        pod = make_pod("web", namespace="prod")
        translated = to_super(pod, vc)
        assert tenant_origin(translated) == (vc.key, "prod", "web")
        assert tenant_key(translated) == "prod/web"

    def test_unmanaged_object_has_no_origin(self):
        assert tenant_origin(make_pod("native")) is None
        assert not is_managed(make_pod("native"))


class TestSpecComparison:
    def test_equivalent_specs(self, vc):
        tenant_pod = make_pod("p")
        super_pod = to_super_pod(tenant_pod, vc)
        assert specs_equivalent(tenant_pod, super_pod)

    def test_node_name_ignored(self, vc):
        tenant_pod = make_pod("p", node_name="vnode-1")
        super_pod = to_super_pod(tenant_pod, vc)
        super_pod.spec.node_name = "physical-7"
        assert specs_equivalent(tenant_pod, super_pod)

    def test_real_divergence_detected(self, vc):
        tenant_pod = make_pod("p")
        # to_super shares the tenant's spec; take a private object to edit.
        super_pod = to_super_pod(tenant_pod, vc).copy()
        super_pod.spec.containers[0].image = "different"
        assert not specs_equivalent(tenant_pod, super_pod)


class TestTracing:
    def test_phases_computed(self):
        trace = PodTrace("t", "ns/p", created=0.0)
        trace.dws_dequeue = 1.0
        trace.dws_done = 1.5
        trace.super_ready = 3.0
        trace.uws_dequeue = 4.0
        trace.uws_done = 4.2
        phases = trace.phases()
        assert phases["DWS-Queue"] == 1.0
        assert phases["DWS-Process"] == 0.5
        assert phases["Super-Sched"] == 1.5
        assert phases["UWS-Queue"] == 1.0
        assert phases["UWS-Process"] == pytest.approx(0.2)
        assert trace.total == pytest.approx(4.2)

    def test_incomplete_trace(self):
        trace = PodTrace("t", "ns/p", created=0.0)
        assert not trace.complete
        assert trace.total is None
        assert trace.phases() is None

    def test_store_mark_is_first_write_wins(self):
        store = TraceStore()
        store.begin("t", "ns/p", created=0.0)
        store.mark("t", "ns/p", "dws_dequeue", 1.0)
        store.mark("t", "ns/p", "dws_dequeue", 99.0)
        assert store.get("t", "ns/p").dws_dequeue == 1.0

    def test_store_begin_idempotent(self):
        store = TraceStore()
        a = store.begin("t", "ns/p", created=0.0)
        b = store.begin("t", "ns/p", created=5.0)
        assert a is b
        assert a.created == 0.0

    @staticmethod
    def _stamp(store, tenant, key, *stamps):
        """Mark the five phase boundaries in order."""
        fields = ("dws_dequeue", "dws_done", "super_ready", "uws_dequeue",
                  "uws_done")
        store.begin(tenant, key, created=0.0)
        for field, when in zip(fields, stamps):
            store.mark(tenant, key, field, when)

    def test_mean_phase_breakdown(self):
        store = TraceStore()
        for i in range(2):
            self._stamp(store, "t", f"ns/p{i}",
                        1.0 + i, 2.0 + i, 3.0 + i, 4.0 + i, 5.0 + i)
        means = store.mean_phase_breakdown()
        assert means["DWS-Queue"] == pytest.approx(1.5)
        assert set(means) == set(PHASES)

    def test_bucket_counts(self):
        store = TraceStore()
        # DWS-Queue lands in bucket [2,4), every other phase in [0,2).
        self._stamp(store, "t", "ns/p", 3.0, 3.1, 3.2, 3.3, 3.4)
        buckets = store.phase_bucket_counts()
        assert buckets["DWS-Queue"] == [0, 1, 0, 0, 0]
        assert buckets["DWS-Process"] == [1, 0, 0, 0, 0]

    def test_per_tenant_means(self):
        store = TraceStore()
        for tenant, total in (("a", 2.0), ("a", 4.0), ("b", 10.0)):
            self._stamp(store, tenant, f"ns/p{total}-{tenant}",
                        0.0, 0.0, 0.0, 0.0, total)
        means = store.mean_creation_time_by_tenant()
        assert means["a"] == pytest.approx(3.0)
        assert means["b"] == pytest.approx(10.0)

    def test_out_of_order_completion_counts_once(self):
        """``uws_done`` before ``super_ready``: the early mark raises (as
        it always has, inside the caller's worker) and the trace counts
        once, when its last phase lands."""
        store = TraceStore()
        store.begin("t", "ns/p", created=0.0)
        for field, when in (("dws_dequeue", 1.0), ("dws_done", 2.0),
                            ("uws_dequeue", 4.0)):
            store.mark("t", "ns/p", field, when)
        with pytest.raises(TypeError):
            store.mark("t", "ns/p", "uws_done", 5.0)
        assert store.completed_count == 0
        assert store.mean_creation_time_by_tenant() == {}
        store.mark("t", "ns/p", "super_ready", 3.0)
        assert store.completed_count == 1
        assert store.mean_creation_time_by_tenant() == {"t": 5.0}


class TestTraceRetention:
    """The TraceStore keeps every trace; completions feed the registry."""

    @staticmethod
    def _complete(store, tenant, key, created, total=5.0):
        store.begin(tenant, key, created=created)
        store.mark(tenant, key, "dws_dequeue", created + 1.0)
        store.mark(tenant, key, "dws_done", created + 2.0)
        store.mark(tenant, key, "super_ready", created + 3.0)
        store.mark(tenant, key, "uws_dequeue", created + 4.0)
        store.mark(tenant, key, "uws_done", created + total)

    def test_uncapped_keeps_everything(self):
        store = TraceStore()
        for i in range(20):
            self._complete(store, "t", f"ns/p{i}", created=0.0)
        assert len(store) == 20
        assert store.completed_count == 20

    def test_telemetry_histograms_observe_completions(self):
        from repro.telemetry import Telemetry

        class _StubSim:
            now = 0.0
            active_process = None

        telemetry = Telemetry(_StubSim())
        store = TraceStore(telemetry=telemetry)
        for i in range(12):
            self._complete(store, "acme", f"ns/p{i}", created=0.0)
        family = telemetry.registry.get("pod_creation_seconds")
        child = family.labels(tenant="acme")
        assert child.count == 12
        assert child.sum == pytest.approx(12 * 5.0)
        phases = telemetry.registry.get("pod_phase_seconds")
        assert sum(c.count for _v, c in phases.children()) == 12 * 5


class TestVcObject:
    def test_make_virtual_cluster(self):
        vc = make_virtual_cluster("acme", weight=5, mode="cloud")
        assert vc.spec.tenant_weight == 5
        assert vc.spec.mode == "cloud"
        assert vc.status.phase == "Pending"
        assert not vc.is_running

    def test_vc_serde_round_trip(self, vc):
        vc.status.phase = "Running"
        vc.status.cert_hash = "abc"
        again = type(vc).from_dict(vc.to_dict())
        assert again.status.cert_hash == "abc"
        assert again.is_running
