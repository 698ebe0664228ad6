"""Virtual kubelet with a mock Pod provider.

The paper's evaluation installs one hundred virtual kubelets in the super
cluster "to simulate a cluster with one hundred nodes running a large
number of Pods"; each runs a mock provider that "marks all Pods scheduled
to the virtual kubelet ready and running instantaneously" (§IV).  The
only latency is the provider acknowledgement + status write-back, which
is part of the measured Super-Sched phase.

The provider interface is narrow (~7 methods: create, update, delete and
get a Pod, its status, the Pod list, the node capacity, vs ~25 CRI
methods) — the paper's Fig. 6 argument for why virtual kubelet cannot
preserve full node semantics the way VirtualCluster's vNodes do.  The
mock provider keeps no Pod table, so it implements only the two verbs
this node agent calls: create (mark Ready) and capacity.
"""

from repro.apiserver.errors import ApiError, Conflict, NotFound
from repro.objects import make_node
from repro.simkernel.errors import Interrupt
from repro.telemetry import telemetry_of


class MockProvider:
    """The provider interface's two verbs a mock node needs: it marks
    every pod Running/Ready instantly and reports a fixed capacity."""

    def __init__(self, sim, node_name):
        self.sim = sim
        self.node_name = node_name
        self._ip_index = 0

    def create_pod(self, pod):
        self._ip_index += 1
        high, low = divmod(self._ip_index, 254)
        pod.status.phase = "Running"
        pod.status.pod_ip = f"10.88.{high % 254}.{low + 1}"
        pod.status.start_time = self.sim.now
        pod.status.set_condition("PodScheduled", "True", now=self.sim.now)
        pod.status.set_condition("Initialized", "True", now=self.sim.now)
        pod.status.set_condition("ContainersReady", "True", now=self.sim.now)
        pod.status.set_condition("Ready", "True", now=self.sim.now)
        return pod

    def capacity(self):
        return {"cpu": "96", "memory": "328Gi", "pods": "1000"}


class VirtualKubelet:
    """A node agent backed by a provider instead of a real runtime."""

    heartbeat_interval = 5.0

    def __init__(self, sim, node_name, client, config, informer_factory):
        self.sim = sim
        self.node_name = node_name
        self.client = client
        self.config = config
        self.provider = MockProvider(sim, node_name)
        self.pod_informer = informer_factory.informer(
            "pods", field_selector={"spec.nodeName": node_name})
        self.pod_informer.add_handlers(on_add=self._on_pod_add)
        self._stopped = False
        self._heartbeat_process = None
        self.pods_acked = 0
        # Same family as the real kubelet, distinguished by kind, so a
        # mixed fleet reports Running pods under one metric name.
        self._started_counter = telemetry_of(sim).counter(
            "kubelet_pods_started_total", "pods brought to Running",
            labels=("kind",)).labels(kind="virtual")

    def start(self):
        """Coroutine: register the node, start the watch + heartbeat."""
        capacity = self.provider.capacity()
        node = make_node(self.node_name, cpu=capacity["cpu"],
                         memory=capacity["memory"], pods=capacity["pods"],
                         labels={"type": "virtual-kubelet"})
        node.spec.provider_id = f"mock://{self.node_name}"
        try:
            yield from self.client.create(node)
        except ApiError:
            pass
        self.pod_informer.start()
        self._heartbeat_process = self.sim.spawn(
            self._heartbeat_loop(), name=f"vk-{self.node_name}-hb")

    def stop(self):
        self._stopped = True
        self.pod_informer.stop()
        if self._heartbeat_process is not None:
            self._heartbeat_process.interrupt("virtual kubelet stopped")

    def _heartbeat_loop(self):
        while not self._stopped:
            try:
                yield self.sim.timeout(self.heartbeat_interval)
            except Interrupt:
                return
            try:
                node = yield from self.client.get("nodes", self.node_name)
                status = node.status.with_condition(
                    "Ready", "True", reason="VKReady", now=self.sim.now)
                yield from self.client.update_status(
                    node.replace(status=status))
            except ApiError:
                continue

    def _on_pod_add(self, pod):
        if pod.status.is_ready or pod.is_terminal:
            return
        self.sim.spawn(self._ack_pod(pod.key), name=f"vk-ack-{pod.key}")

    def _ack_pod(self, pod_key):
        """Provider acknowledgement: mark the pod Running/Ready.

        Retries across apiserver outages — a real node agent never gives
        up reporting status.
        """
        yield self.sim.timeout(self.config.kubelet.virtual_kubelet_ack)
        while not self._stopped:
            pod = self.pod_informer.cache.get(pod_key)
            if pod is None or pod.status.is_ready:
                return
            # The provider edits the status it is handed; the cached Pod
            # is a shared snapshot, so hand it a private one.
            pod = self.provider.create_pod(
                pod.replace(status=pod.status.copy()))
            try:
                yield from self.client.update_status(pod)
                self.pods_acked += 1
                self._started_counter.inc()
                return
            except (Conflict, NotFound):
                return  # informer will deliver a fresh view / deletion
            except ApiError:
                yield self.sim.timeout(1.0)  # apiserver down: retry
