"""Multiple super clusters (paper §V, future work #3).

"In cases where worker nodes cannot be automatically added to or removed
from a super cluster, supporting multiple super clusters is an option to
break through the capacity limitation of a single super cluster. ... In
VirtualCluster, the users would not be aware of multiple super clusters."

:class:`SuperClusterFleet` runs several complete VirtualCluster
deployments (super cluster + tenant operator + syncer each) on one
simulation and places each new tenant on the super cluster with the most
free capacity.  Tenants receive an ordinary
:class:`~repro.core.env.TenantHandle` — nothing in their API surface
reveals which super cluster backs them, and (unlike Kubernetes
federation) they never see the member clusters.
"""

from repro.simkernel import Simulation

from .env import VirtualClusterEnv


class FleetCapacityError(RuntimeError):
    """No member super cluster can take another tenant's workload."""


class SuperClusterFleet:
    """Several super clusters behind one tenant-facing entry point."""

    def __init__(self, num_super_clusters=2, nodes_per_cluster=10,
                 seed=0, config=None):
        if num_super_clusters < 1:
            raise ValueError("need at least one super cluster")
        self.sim = Simulation(seed=seed)
        self.members = [
            VirtualClusterEnv(sim=self.sim, name=f"sc{index}", config=config,
                              num_virtual_nodes=nodes_per_cluster)
            for index in range(num_super_clusters)]
        self._tenant_member = {}
        self._bootstrapped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bootstrap(self, settle=2.0):
        if self._bootstrapped:
            return
        for member in self.members:
            self.sim.run(until=self.sim.process(
                member._bootstrap(), name=f"bootstrap-{member.name}"))
        self.sim.run(until=self.sim.now + settle)
        for member in self.members:
            member._bootstrapped = True
        self._bootstrapped = True

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def capacity_of(self, member):
        """(used_pods, total_pod_capacity) for one member cluster."""
        api = member.super_cluster.api
        used = api.store.count_prefix("/registry/pods/")
        total = 0
        for node in api.reader.read_all("nodes"):
            pods = node.status.allocatable.get("pods")
            if pods is not None:
                total += int(pods.value)
        return used, total

    def pick_member(self):
        """Least-loaded placement: pod-capacity fraction first, tenant
        count as the tie-breaker (so empty clusters fill evenly)."""
        tenant_counts = {}
        for member in self._tenant_member.values():
            tenant_counts[member.name] = tenant_counts.get(member.name,
                                                           0) + 1
        best = None
        best_load = None
        for member in self.members:
            used, total = self.capacity_of(member)
            if total <= 0:
                continue
            load = (used / total, tenant_counts.get(member.name, 0))
            if load[0] >= 0.95:
                continue  # effectively full
            if best_load is None or load < best_load:
                best = member
                best_load = load
        if best is None:
            raise FleetCapacityError(
                "every super cluster in the fleet is at capacity")
        return best

    # ------------------------------------------------------------------
    # Tenant API (mirrors VirtualClusterEnv)
    # ------------------------------------------------------------------

    def create_tenant(self, name, weight=1):
        """Coroutine: place and provision a tenant on some member."""
        member = self.pick_member()
        handle = yield from member.create_tenant(name, weight=weight)
        self._tenant_member[handle.key] = member
        return handle

    def member_of(self, handle):
        """Which member backs a tenant (operator-facing, not tenant)."""
        return self._tenant_member.get(handle.key)

    def delete_tenant(self, handle):
        member = self._tenant_member.pop(handle.key, None)
        if member is None:
            return
        yield from member.delete_tenant(handle)

    # ------------------------------------------------------------------
    # Run helpers (same shape as VirtualClusterEnv)
    # ------------------------------------------------------------------

    def run_coroutine(self, coroutine, name="fleet-driver"):
        return self.sim.run(until=self.sim.process(coroutine, name=name))

    def run_for(self, seconds):
        self.sim.run(until=self.sim.now + seconds)

    def run_until(self, predicate, timeout=600.0, poll=0.1):
        deadline = self.sim.now + timeout
        while not predicate():
            if self.sim.now >= deadline:
                raise TimeoutError("fleet condition not met in time")
            self.sim.run(until=min(self.sim.now + poll, deadline))
        return self.sim.now

    def run_until_pods_ready(self, tenant, pod_keys, timeout=600.0):
        member = self.member_of(tenant)
        cache = member.syncer.tenant_informer(tenant.key, "pods").cache

        def all_ready():
            return all(
                (pod := cache.get(key)) is not None and pod.status.is_ready
                for key in pod_keys
            )

        return self.run_until(all_ready, timeout=timeout)

    def utilization(self):
        """Per-member (used, total) pod counts."""
        return {member.name: self.capacity_of(member)
                for member in self.members}
