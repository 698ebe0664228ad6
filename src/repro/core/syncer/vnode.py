"""vNode management (paper §III-C, Fig. 6).

Each virtual node object in a tenant control plane represents a *real*
physical node of the super cluster, one-to-one — unlike virtual kubelet,
where many pods collapse onto one synthetic node and scheduling
constraints like anti-affinity become invisible.  The syncer:

- creates a vNode in a tenant the first time one of its pods is bound to
  that physical node;
- tracks pod-to-vNode bindings and removes a vNode once its last pod is
  gone;
- broadcasts physical-node heartbeats to every tenant's matching vNode.
"""

from repro.apiserver.errors import AlreadyExists, ApiError, NotFound
from repro.simkernel.errors import Interrupt

from ..vn_agent import VN_AGENT_PORT

VNODE_LABEL = "tenancy.x-k8s.io/vnode"


class VNodeManager:
    """Tracks bindings and reconciles vNode objects in tenant CPs."""

    heartbeat_interval = 10.0

    def __init__(self, syncer):
        self.syncer = syncer
        self.sim = syncer.sim
        # tenant -> node_name -> set(pod_key)
        self._bindings = {}
        # (tenant, node_name) -> True once created in the tenant CP
        self._created = set()
        self._heartbeat_process = None
        self.heartbeats_sent = 0
        self._heartbeats_counter = syncer._telemetry.counter(
            "vnode_heartbeats_total", "vNode heartbeat status writes",
            labels=("syncer",)).labels(syncer=syncer.name)

    # ------------------------------------------------------------------
    # Binding bookkeeping (called from the upward pod reconciler)
    # ------------------------------------------------------------------

    def pod_bound(self, tenant, pod_key, node_name):
        tenant_nodes = self._bindings.setdefault(tenant, {})
        tenant_nodes.setdefault(node_name, set()).add(pod_key)

    def pod_deleted(self, tenant, pod_key):
        tenant_nodes = self._bindings.get(tenant, {})
        for node_name, pods in list(tenant_nodes.items()):
            if pod_key in pods:
                pods.discard(pod_key)
                if not pods:
                    del tenant_nodes[node_name]
                    self.syncer.spawn(
                        self._remove_vnode(tenant, node_name),
                        name=f"vnode-remove-{tenant}-{node_name}")

    def bound_pods(self, tenant, node_name):
        return set(self._bindings.get(tenant, {}).get(node_name, ()))

    def vnodes_for(self, tenant):
        return sorted(self._bindings.get(tenant, {}))

    def rebuild(self, tenant):
        """Repopulate bindings from warm informer caches (HA takeover).

        Binding state is in-memory only, so a standby that just became
        leader starts empty — and an empty expected-set would make
        :meth:`reconcile_tenant` delete every *live* vNode.  Rebuild the
        expected state from the super pods cache (scheduled, managed pods
        owned by this tenant) and mark vNodes already present in the
        tenant control plane as created.
        """
        from .conversion import (
            INDEX_TENANT,
            is_managed,
            tenant_index,
            tenant_key,
        )

        registration = self.syncer.tenants.get(tenant)
        if registration is None:
            return
        super_cache = self.syncer.super_informer("pods").cache
        super_cache.add_index(INDEX_TENANT, tenant_index)
        candidates = super_cache.by_index(INDEX_TENANT, tenant)
        bindings = {}
        for pod in candidates:
            if not is_managed(pod) or not self.syncer.owns(tenant, pod):
                continue
            if not pod.spec.node_name or pod.metadata.deletion_timestamp:
                continue
            t_key = tenant_key(pod)
            if t_key is None:
                continue
            bindings.setdefault(pod.spec.node_name, set()).add(t_key)
        self._bindings[tenant] = bindings
        self._created = {(t, n) for (t, n) in self._created if t != tenant}
        tenant_nodes = self.syncer.tenant_informer(tenant, "nodes").cache
        for node in tenant_nodes.items():
            if (node.metadata.labels or {}).get(VNODE_LABEL) == "true":
                self._created.add((tenant, node.metadata.name))

    # ------------------------------------------------------------------
    # vNode object lifecycle
    # ------------------------------------------------------------------

    def ensure_vnode(self, tenant, node_name):
        """Coroutine: create the tenant's vNode for a physical node."""
        if (tenant, node_name) in self._created:
            return
        registration = self.syncer.tenants.get(tenant)
        if registration is None:
            return
        super_node = self.syncer.super_informer("nodes").cache.get(node_name)
        if super_node is None:
            return
        # The vNode advertises the vn-agent port instead of the kubelet
        # port, so tenant log/exec requests are intercepted (§III-B(3)).
        vnode = super_node.replace(
            metadata=super_node.metadata.replace(
                resource_version=None, uid=None,
                labels={**(super_node.metadata.labels or {}),
                        VNODE_LABEL: "true"}),
            status=super_node.status.replace(daemon_endpoints={
                "kubeletEndpoint": {"Port": VN_AGENT_PORT}}))
        self._created.add((tenant, node_name))
        try:
            yield from registration.client.create(vnode)
        except AlreadyExists:
            pass
        except ApiError:
            self._created.discard((tenant, node_name))

    def reconcile_tenant(self, tenant):
        """Coroutine: converge the tenant's vNode set with the bindings.

        Used by the periodic scanner to remediate stale vNodes: a vNode
        whose last pod is gone but whose removal was missed, or a bound
        node whose vNode creation failed.  Returns the number fixed.
        """
        registration = self.syncer.tenants.get(tenant)
        if registration is None:
            return 0
        expected = set(self.vnodes_for(tenant))
        cache = self.syncer.tenant_informer(tenant, "nodes").cache
        vnodes = cache.by_label(VNODE_LABEL, "true")
        present = {node.metadata.name for node in vnodes}
        fixed = 0
        for name in sorted(present - expected):
            fixed += 1
            yield from self._remove_vnode(tenant, name)
        for name in sorted(expected - present):
            fixed += 1
            self._created.discard((tenant, name))
            yield from self.ensure_vnode(tenant, name)
        return fixed

    def _remove_vnode(self, tenant, node_name):
        if self.bound_pods(tenant, node_name):
            return  # re-bound in the meantime
        registration = self.syncer.tenants.get(tenant)
        self._created.discard((tenant, node_name))
        if registration is None:
            return
        try:
            yield from registration.client.delete("nodes", node_name)
        except (NotFound, ApiError):
            pass

    # ------------------------------------------------------------------
    # Heartbeat broadcast
    # ------------------------------------------------------------------

    def start(self):
        self._heartbeat_process = self.syncer.spawn(
            self._heartbeat_loop(), name="vnode-heartbeats")

    def stop(self):
        if self._heartbeat_process is not None:
            self._heartbeat_process.interrupt("vnode manager stopped")

    def _heartbeat_loop(self):
        cfg = self.syncer.config.syncer
        while True:
            try:
                yield self.sim.timeout(self.heartbeat_interval)
            except Interrupt:
                return
            # One super-node lookup per distinct node per tick, shared
            # across all tenants bound to it: every tenant's vNode gets
            # the conditions the tick started with, however long the
            # writes below take.
            super_nodes_this_tick = {}
            super_node_cache = self.syncer.super_informer("nodes").cache
            for tenant, nodes in list(self._bindings.items()):
                registration = self.syncer.tenants.get(tenant)
                if registration is None:
                    continue
                if not self.syncer.health.allow(tenant):
                    # Circuit open: skip heartbeats into a dead tenant CP
                    # instead of eating client retries per vNode per tick.
                    continue
                for node_name in list(nodes):
                    if node_name in super_nodes_this_tick:
                        super_node = super_nodes_this_tick[node_name]
                    else:
                        super_node = super_node_cache.get(node_name)
                        super_nodes_this_tick[node_name] = super_node
                    if super_node is None:
                        continue
                    yield self.sim.timeout(cfg.vnode_heartbeat_write)
                    self.syncer.cpu.charge(cfg.vnode_heartbeat_write)
                    try:
                        vnode = yield from registration.client.get(
                            "nodes", node_name)
                    except ApiError:
                        continue
                    vnode = vnode.replace(status=vnode.status.replace(
                        conditions=[
                            c.replace(last_heartbeat_time=self.sim.now)
                            for c in super_node.status.conditions]))
                    try:
                        yield from registration.client.update_status(vnode)
                        self.heartbeats_sent += 1
                        self._heartbeats_counter.inc()
                    except ApiError:
                        continue
