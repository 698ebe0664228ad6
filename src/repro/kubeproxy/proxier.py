"""The standard kubeproxy: programs the *host* iptables.

Watches Services and Endpoints and keeps DNAT rules for every cluster-IP
service in the node's host network stack.  This works for runc-style
containers that share the host stack — and silently fails for Kata
containers attached to a tenant VPC, whose traffic never traverses the
host stack.  That failure is the data-plane gap VirtualCluster closes.
"""


class KubeProxy:
    """One node's service proxy."""

    sync_interval = 5.0

    def __init__(self, sim, node_name, informer_factory, host_stack, config):
        self.sim = sim
        self.node_name = node_name
        self.host_stack = host_stack
        self.config = config
        self._services = informer_factory.informer("services")
        self._endpoints = informer_factory.informer("endpoints")
        self._services.add_handlers(
            on_add=lambda o: self._mark_dirty(),
            on_update=lambda old, new: self._mark_dirty(),
            on_delete=lambda o: self._mark_dirty(),
        )
        self._endpoints.add_handlers(
            on_add=lambda o: self._mark_dirty(),
            on_update=lambda old, new: self._mark_dirty(),
            on_delete=lambda o: self._mark_dirty(),
        )
        self._dirty = False
        self._stopped = False
        self._process = None
        self.sync_count = 0
        self.last_sync_duration = 0.0

    def _mark_dirty(self):
        self._dirty = True

    def start(self):
        self._process = self.sim.spawn(
            self._sync_loop(), name=f"kubeproxy-{self.node_name}")
        return self._process

    def stop(self):
        self._stopped = True
        if self._process is not None:
            self._process.interrupt("kubeproxy stopped")

    def desired_rules(self):
        """Current (cluster_ip, port, endpoints) tuples from the caches."""
        endpoints_by_key = {ep.key: ep
                            for ep in self._endpoints.cache.items()}
        rules = []
        for service in self._services.cache.items():
            cluster_ip = service.spec.cluster_ip
            if not cluster_ip or cluster_ip == "None":
                continue
            endpoints = endpoints_by_key.get(service.key)
            backend_ips = endpoints.ready_ips() if endpoints else []
            for port in service.spec.ports:
                backends = [(ip, port.target_port or port.port)
                            for ip in backend_ips]
                rules.append((cluster_ip, port.port, backends))
        return rules

    def _sync_loop(self):
        from repro.simkernel.errors import Interrupt

        while not self._stopped:
            try:
                if self._dirty:
                    self._dirty = False
                    yield from self.sync_once()
                yield self.sim.timeout(0.05 if self._dirty
                                       else self.sync_interval / 50)
            except Interrupt:
                return

    def sync_once(self):
        """Coroutine: program the host iptables to the desired state."""
        started = self.sim.now
        desired = self.desired_rules()
        desired_keys = set()
        for cluster_ip, port, backends in desired:
            desired_keys.add((cluster_ip, port))
            yield self.sim.timeout(self.config.network.host_iptable_update)
            self.host_stack.iptables.replace_service(cluster_ip, port,
                                                     backends)
        for rule in self.host_stack.iptables.rules():
            key = (rule.cluster_ip, rule.port)
            if key not in desired_keys:
                yield self.sim.timeout(
                    self.config.network.host_iptable_update)
                self.host_stack.iptables.remove_service(*key)
        self.sync_count += 1
        self.last_sync_duration = self.sim.now - started
