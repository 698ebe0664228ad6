"""The enhanced kubeproxy (paper §III-B(4)).

In VPC environments pod traffic bypasses the host network stack, so the
stock kubeproxy's host-iptables rules never apply.  The enhanced proxy
keeps a secure gRPC channel to the Kata agent inside every guest OS on
its node and injects/updates the service routing rules **in each guest's
iptables**.  It watches Pod creations and coordinates with the Pod's
init container so rules land before workload containers start, and its
periodic reconcile loop scans every guest's installed rules (the ~300 ms
cost the paper measures for thirty Pods, §IV-E).
"""

from repro.network import RpcChannel, RpcError
from repro.simkernel.errors import Interrupt

from .proxier import KubeProxy


class EnhancedKubeProxy(KubeProxy):
    """Host-rule proxy + per-guest rule injection."""

    reconcile_interval = 2.0

    def __init__(self, sim, node_name, informer_factory, host_stack, config):
        super().__init__(sim, node_name, informer_factory, host_stack,
                         config)
        self._channels = {}
        self._reconciler = None
        self.injections = {}
        self.injection_latency_total = 0.0
        self.injection_count = 0
        self.last_scan_duration = 0.0
        self.scan_count = 0

    # ------------------------------------------------------------------
    # Sandbox registration (called by the kubelet when a guest boots or
    # stops)
    # ------------------------------------------------------------------

    def on_sandbox_started(self, sandbox, agent):
        """Open the gRPC channel and inject the current rule set."""
        if sandbox.sandbox_id in self._channels:
            return
        channel = RpcChannel(self.sim, agent.rpc,
                             self.config.network.grpc_round_trip)
        self._channels[sandbox.sandbox_id] = (channel, agent, sandbox)
        self.sim.spawn(self._initial_injection(sandbox.sandbox_id),
                       name=f"inject-{sandbox.sandbox_id}")

    def on_sandbox_stopped(self, sandbox):
        """Forget a stopped guest: scans and rule pushes stop calling it."""
        self._channels.pop(sandbox.sandbox_id, None)

    def _initial_injection(self, sandbox_id):
        entry = self._channels.get(sandbox_id)
        if entry is None:
            return
        channel, agent, _sandbox = entry
        started = self.sim.now
        rules = self.desired_rules()
        try:
            yield from channel.call("apply_routing_rules",
                                    {"rules": rules, "final": True})
        except RpcError:
            self._channels.pop(sandbox_id, None)
            return
        elapsed = self.sim.now - started
        self.injections[sandbox_id] = elapsed
        self.injection_latency_total += elapsed
        self.injection_count += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        process = super().start()
        self._reconciler = self.sim.spawn(
            self._reconcile_loop(), name=f"ekp-reconcile-{self.node_name}")
        return process

    def stop(self):
        super().stop()
        if self._reconciler is not None:
            self._reconciler.interrupt("enhanced kubeproxy stopped")

    # ------------------------------------------------------------------
    # Guest synchronization
    # ------------------------------------------------------------------

    def sync_once(self):
        """Host rules first, then push updates to every guest."""
        yield from super().sync_once()
        rules = self.desired_rules()
        for sandbox_id in list(self._channels):
            entry = self._channels.get(sandbox_id)
            if entry is None:
                continue
            channel, _agent, _sandbox = entry
            try:
                yield from channel.call("apply_routing_rules",
                                        {"rules": rules, "final": False})
            except RpcError:
                self._channels.pop(sandbox_id, None)

    def _reconcile_loop(self):
        """Periodic scan of all guests' rule tables (paper §IV-E)."""
        while not self._stopped:
            try:
                yield self.sim.timeout(self.reconcile_interval)
                yield from self.scan_all_guests()
            except Interrupt:
                return

    def scan_all_guests(self):
        """Coroutine: verify every guest holds the desired rules."""
        started = self.sim.now
        desired = self.desired_rules()
        desired_index = {(ip, port): endpoints
                         for ip, port, endpoints in desired}
        for sandbox_id in list(self._channels):
            entry = self._channels.get(sandbox_id)
            if entry is None:
                continue
            channel, _agent, _sandbox = entry
            try:
                state = yield from channel.call("scan_rules", {})
            except RpcError:
                self._channels.pop(sandbox_id, None)
                continue
            installed = {(ip, port): endpoints
                         for ip, port, endpoints in state["rules"]}
            missing = [
                (ip, port, endpoints)
                for (ip, port), endpoints in desired_index.items()
                if installed.get((ip, port)) != [list(e) for e in endpoints]
                and installed.get((ip, port)) != endpoints
            ]
            stale = [key for key in installed if key not in desired_index]
            if missing:
                try:
                    yield from channel.call(
                        "apply_routing_rules",
                        {"rules": missing, "final": False})
                except RpcError:
                    self._channels.pop(sandbox_id, None)
                    continue
            for ip, port in stale:
                try:
                    yield from channel.call(
                        "remove_routing_rule",
                        {"cluster_ip": ip, "port": port})
                except RpcError:
                    break
        self.scan_count += 1
        self.last_scan_duration = self.sim.now - started

    @property
    def connected_guests(self):
        return len(self._channels)

    @property
    def mean_injection_latency(self):
        if not self.injection_count:
            return 0.0
        return self.injection_latency_total / self.injection_count
