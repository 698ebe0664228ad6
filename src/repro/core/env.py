"""VirtualClusterEnv: one-call assembly of the whole system.

This is the library's main entry point: it builds a super cluster (with
virtual-kubelet nodes for control-plane experiments and/or real nodes
with Kata + enhanced kubeproxy for data-plane experiments), the tenant
operator, the centralized syncer, and per-node vn-agents, and offers
convenience coroutines for creating tenants and workloads.

Typical use::

    env = VirtualClusterEnv(num_virtual_nodes=100)
    env.bootstrap()
    tenant = env.run_coroutine(env.create_tenant("acme"))
    pod = env.run_coroutine(tenant.create_pod("web-1"))
    env.run_until_pods_ready(tenant, ["default/web-1"])
"""

from repro.apiserver.errors import ApiError
from repro.clientgo import InformerFactory
from repro.config import DEFAULT_CONFIG
from repro.kubelet import Kubelet
from repro.kubelet.runtimes.kata import KataRuntime
from repro.kubelet.runtimes.runc import RuncRuntime
from repro.kubeproxy import EnhancedKubeProxy
from repro.network import NetworkStack, Vpc
from repro.objects import make_namespace, make_node, make_pod, make_service
from repro.simkernel import Simulation
from repro.virtualkubelet import VirtualKubelet

from .controlplane import SuperCluster
from .crd import make_virtual_cluster
from .syncer.ha import SyncerHA
from .syncer.syncer import Syncer
from .tenant_operator import TenantOperator
from .vn_agent import VnAgent


class TenantHandle:
    """A tenant's view: its VC object, control plane, and client."""

    def __init__(self, env, vc, control_plane):
        self.env = env
        self.vc = vc
        self.control_plane = control_plane
        self.credential = control_plane.tenant_credential
        self.tier = None  # declared admission tier (set_tenant_tier)
        self.client = control_plane.client(
            credential=self.credential,
            user_agent=f"tenant-{vc.name}", qps=10_000, burst=20_000)

    @property
    def name(self):
        return self.vc.name

    @property
    def key(self):
        return self.vc.key

    def create_namespace(self, name):
        return self.client.create(make_namespace(name))

    def create_pod(self, name, namespace="default", **kwargs):
        return self.client.create(make_pod(name, namespace=namespace,
                                           **kwargs))

    def create_service(self, name, namespace="default", **kwargs):
        return self.client.create(make_service(name, namespace=namespace,
                                               **kwargs))

    def get_pod(self, name, namespace="default"):
        return self.client.get("pods", name, namespace=namespace)

    def list_pods(self, namespace="default"):
        return self.client.list("pods", namespace=namespace)

    def logs(self, pod_name, namespace="default", container=None, tail=None):
        """Coroutine: fetch pod logs via the vNode's vn-agent."""
        pod = yield from self.get_pod(pod_name, namespace=namespace)
        if not pod.spec.node_name:
            raise ApiError(f"pod {pod_name!r} is not scheduled yet")
        agent = self.env.vn_agents.get(pod.spec.node_name)
        if agent is None:
            raise ApiError(
                f"no vn-agent on node {pod.spec.node_name!r}")
        lines = yield from agent.logs(self.credential, namespace, pod_name,
                                      container=container, tail=tail)
        return lines

    def exec(self, pod_name, command, namespace="default", container=None):
        """Coroutine: exec into a pod via the vNode's vn-agent."""
        pod = yield from self.get_pod(pod_name, namespace=namespace)
        agent = self.env.vn_agents.get(pod.spec.node_name)
        if agent is None:
            raise ApiError(f"no vn-agent on node {pod.spec.node_name!r}")
        result = yield from agent.exec(self.credential, namespace, pod_name,
                                       command, container=container)
        return result


class VirtualClusterEnv:
    """The full simulated deployment."""

    def __init__(self, seed=0, config=None, num_virtual_nodes=0,
                 num_real_nodes=0, fair_queuing=True, dws_workers=None,
                 uws_workers=None, scan_interval=None,
                 vc_namespace="vc-manager", sim=None, name="super",
                 circuit_breaker=True, syncer_replicas=1,
                 warm_standby=True, store_replicas=None, store_wal=None,
                 apf=None, scale_to_zero=None):
        self.sim = sim or Simulation(seed=seed)
        self.name = name
        self.config = config or DEFAULT_CONFIG
        if store_replicas is not None or store_wal is not None:
            # Durable-storage opt-in (DESIGN.md §13): every control-plane
            # store gets a WAL, and with replicas > 1 becomes a
            # replicated group with leader election.
            from dataclasses import replace as _replace

            storage = _replace(
                self.config.storage,
                replicas=(store_replicas if store_replicas is not None
                          else self.config.storage.replicas),
                wal_enabled=(bool(store_wal) if store_wal is not None
                             else self.config.storage.wal_enabled))
            self.config = self.config.with_overrides(storage=storage)
        if apf is not None or scale_to_zero is not None:
            # Overload-protection opt-ins (DESIGN.md §15): tiered APF
            # admission on the super apiserver and/or the scale-to-zero
            # control-plane autoscaler.  Both default off (paper-faithful).
            from dataclasses import replace as _replace

            overrides = {}
            if apf is not None:
                overrides["apf"] = _replace(self.config.apf,
                                            enabled=bool(apf))
            if scale_to_zero is not None:
                overrides["swapper"] = _replace(self.config.swapper,
                                                enabled=bool(scale_to_zero))
            self.config = self.config.with_overrides(**overrides)
        self.vc_namespace = vc_namespace
        self.super_cluster = SuperCluster(self.sim, self.config, name=name)
        self.super_cluster.start()
        self.vpc = Vpc("tenant-vpc")
        self.virtual_kubelets = []
        self.real_kubelets = {}
        self.kube_proxies = {}
        self.vn_agents = {}
        self.tenant_operator = TenantOperator(
            self.sim, self.super_cluster, self.config,
            on_deprovisioned=self._on_tenant_deprovisioned)
        self.tenant_operator.start()
        syncer_name = "syncer" if name == "super" else f"{name}-syncer"
        syncer_kwargs = dict(
            fair_queuing=fair_queuing, dws_workers=dws_workers,
            uws_workers=uws_workers, scan_interval=scan_interval,
            circuit_breaker=circuit_breaker)
        if syncer_replicas > 1:
            # HA mode (DESIGN.md §10): N replicas behind a lease; the
            # ``syncer`` property resolves to the serving leader.
            self.syncer_ha = SyncerHA(
                self.sim, self.super_cluster, config=self.config,
                replicas=syncer_replicas, warm_standby=warm_standby,
                **syncer_kwargs)
            self._syncer = None
            self.syncer_ha.start()
        else:
            self.syncer_ha = None
            self._syncer = Syncer(
                self.sim, self.super_cluster, config=self.config,
                name=syncer_name, **syncer_kwargs)
            self._syncer.start()
        self.tenants = {}
        # Scale-to-zero autoscaler over tenant control planes; tenants
        # are tracked (with their tier) as they are created.
        self.swapper = None
        if self.config.swapper.enabled:
            from .swapper import IdleSwapper

            self.swapper = IdleSwapper.from_config(self.sim,
                                                   self.config.swapper)
            self.swapper.start()
        self._num_virtual_nodes = num_virtual_nodes
        self._num_real_nodes = num_real_nodes
        self._bootstrapped = False

    @property
    def syncer(self):
        """The syncer serving reads/writes right now.

        Single-replica mode: the one syncer.  HA mode: the serving
        leader (or the best-informed standby mid-failover).
        """
        if self.syncer_ha is not None:
            return self.syncer_ha.syncer
        return self._syncer

    def _on_tenant_deprovisioned(self, key, _control_plane):
        """TenantOperator hook: tear down syncer per-tenant state when a
        VC is deprovisioned, however the deletion arrived (API delete,
        finalizer, operator resync) — not just via :meth:`delete_tenant`."""
        if self.syncer_ha is not None:
            self.syncer_ha.drop_tenant(key)
        elif self._syncer is not None:
            self._syncer.drop_tenant(key)
        if self.swapper is not None and _control_plane is not None:
            self.swapper.untrack(_control_plane)
        self.tenants.pop(key, None)

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def bootstrap(self, settle=2.0):
        """Run the simulation until base infrastructure is up."""
        if self._bootstrapped:
            return
        self.sim.run(until=self.sim.process(self._bootstrap(),
                                            name="bootstrap"))
        self.sim.run(until=self.sim.now + settle)
        self._bootstrapped = True

    def _bootstrap(self):
        admin = self.super_cluster.client(user_agent="bootstrap",
                                          qps=100000, burst=200000)
        for namespace in ("default", "kube-system", self.vc_namespace):
            try:
                yield from admin.create(make_namespace(namespace))
            except ApiError:
                pass
        prefix = "" if self.name == "super" else f"{self.name}-"
        for index in range(self._num_virtual_nodes):
            yield from self.add_virtual_node(f"{prefix}vk-node-{index:03d}")
        for index in range(self._num_real_nodes):
            yield from self._add_real_node(f"{prefix}node-{index:02d}")

    def add_virtual_node(self, name, link=None):
        """Coroutine: add one virtual-kubelet node (bootstrap or runtime).

        ``link`` is an optional :class:`~repro.network.NetworkLink` the
        node's API client traverses on every request — scenario
        topologies use it to place whole node pools behind a
        high-latency or lossy edge uplink (DESIGN.md §14).  Callable
        mid-run, which is how elastic virtual-kubelet pools stage their
        joins.
        """
        client = self.super_cluster.client(
            user_agent=f"vk-{name}", qps=100000, burst=200000)
        if link is not None:
            client.link = link
        informers = InformerFactory(self.sim, client)
        vk = VirtualKubelet(self.sim, name, client, self.config, informers)
        yield from vk.start()
        self.virtual_kubelets.append(vk)
        self.super_cluster.node_agents.append(vk)
        return vk

    def _add_real_node(self, name):
        node = make_node(name, internal_ip=f"192.168.1.{len(self.real_kubelets) + 10}")
        node.metadata.labels["node-type"] = "real"
        client = self.super_cluster.client(
            user_agent=f"kubelet-{name}", qps=100000, burst=200000)
        informers = InformerFactory(self.sim, client)
        host_stack = NetworkStack(name=f"host-{name}")

        proxy_informers = InformerFactory(
            self.sim, self.super_cluster.client(
                user_agent=f"kubeproxy-{name}", qps=100000, burst=200000))
        proxy = EnhancedKubeProxy(self.sim, name, proxy_informers,
                                  host_stack, self.config)
        proxy_informers.informer("services")
        proxy_informers.informer("endpoints")
        proxy_informers.start_all()
        proxy.start()
        self.kube_proxies[name] = proxy

        runtimes = {
            None: RuncRuntime(self.sim, self.config, host_stack,
                              self.vpc.allocate_ip),
            "kata": KataRuntime(self.sim, self.config, self.vpc),
        }
        kubelet = Kubelet(self.sim, node, client, self.config, runtimes,
                          informers, enhanced_proxy=proxy)
        yield from kubelet.start()
        self.real_kubelets[name] = kubelet
        self.super_cluster.node_agents.append(kubelet)

        agent = VnAgent(self.sim, name, kubelet, self.tenant_operator)
        self.vn_agents[name] = agent

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------

    def create_tenant(self, name, weight=1, mode="local",
                      default_namespace="default", tier=None):
        """Coroutine: create a VC, wait for provisioning, wire the syncer.

        ``tier`` (platinum/standard/free) feeds the super apiserver's
        APF classifier and the swapper's wake priority; None means the
        APF default tier.
        """
        admin = self.super_cluster.client(user_agent="admin", qps=100000,
                                          burst=200000)
        vc = make_virtual_cluster(name, namespace=self.vc_namespace,
                                  weight=weight, mode=mode)
        vc = yield from admin.create(vc)
        while True:
            control_plane = self.tenant_operator.control_plane_for(vc.key)
            if control_plane is not None:
                fresh = yield from admin.get("virtualclusters", name,
                                             namespace=self.vc_namespace)
                if fresh.is_running:
                    vc = fresh
                    break
            yield self.sim.timeout(0.1)
        if self.syncer_ha is not None:
            self.syncer_ha.register_tenant(vc, control_plane, weight=weight)
        else:
            self._syncer.register_tenant(vc, control_plane, weight=weight)
        handle = TenantHandle(self, vc, control_plane)
        self.tenants[vc.key] = handle
        self.set_tenant_tier(handle, tier)
        if default_namespace:
            try:
                yield from handle.create_namespace(default_namespace)
            except ApiError:
                pass
        return handle

    def delete_tenant(self, handle):
        """Coroutine: remove a tenant (VC deletion + syncer detach)."""
        admin = self.super_cluster.client(user_agent="admin")
        if self.syncer_ha is not None:
            self.syncer_ha.unregister_tenant(handle.key)
        else:
            self._syncer.unregister_tenant(handle.key)
        self.tenants.pop(handle.key, None)
        yield from admin.delete("virtualclusters", handle.name,
                                namespace=self.vc_namespace)

    def set_tenant_tier(self, handle, tier=None):
        """Wire one tenant's tier into APF classification and the
        scale-to-zero autoscaler (no-ops when neither is enabled)."""
        handle.tier = tier
        apf = self.super_cluster.apf
        if apf is not None and tier is not None:
            # The tenant's identity on the super apiserver (used by
            # direct tenant traffic and TenantStorm abusers).
            apf.classifier.assign(f"tenant-{handle.name}", tier)
        if self.swapper is not None:
            self.swapper.track(handle.control_plane, tier=tier or "standard")

    # ------------------------------------------------------------------
    # Run helpers
    # ------------------------------------------------------------------

    def run_coroutine(self, coroutine, name="driver"):
        """Run the sim until ``coroutine`` finishes; return its value."""
        return self.sim.run(until=self.sim.process(coroutine, name=name))

    def run_for(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    def run_until(self, predicate, timeout=600.0, poll=0.1):
        """Advance the sim until ``predicate()`` is true (or timeout)."""
        deadline = self.sim.now + timeout
        while not predicate():
            if self.sim.now >= deadline:
                raise TimeoutError(
                    f"condition not met within {timeout} simulated seconds")
            self.sim.run(until=min(self.sim.now + poll, deadline))
        return self.sim.now

    def run_until_pods_ready(self, tenant, pod_keys, timeout=600.0):
        """Advance until all tenant pods report Ready."""
        cache = self.syncer.tenant_informer(tenant.key, "pods").cache

        def all_ready():
            for key in pod_keys:
                pod = cache.get(key)
                if pod is None or not pod.status.is_ready:
                    return False
            return True

        return self.run_until(all_ready, timeout=timeout)

    def super_admin_client(self, **kwargs):
        kwargs.setdefault("qps", 100000)
        kwargs.setdefault("burst", 200000)
        return self.super_cluster.client(user_agent="super-admin", **kwargs)
