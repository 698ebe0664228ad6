"""The kubelet: per-node agent driving Pod lifecycles via CRI.

Watches the apiserver for Pods bound to its node (server-side
``spec.nodeName`` field selector, like the real kubelet), runs init
containers then workload containers through the configured runtime, and
reports status back — including the Ready condition whose timestamp the
paper's Pod-creation-time metric is measured against.

For Kata Pods fronted by the enhanced kubeproxy, an implicit
``network-rules-check`` init container blocks workload-container start
until the proxy has injected the current service routing rules into the
guest (paper §III-B(4)).
"""

from repro.apiserver.errors import ApiError, Conflict, NotFound
from repro.simkernel.errors import Interrupt
from repro.telemetry import telemetry_of


class Kubelet:
    """One node's agent."""

    heartbeat_interval = 2.0

    def __init__(self, sim, node, client, config, runtimes,
                 informer_factory, enhanced_proxy=None):
        """``runtimes`` maps runtimeClassName (None = default) to a CRI
        runtime instance."""
        from repro.clientgo.events import EventRecorder

        self.sim = sim
        self.node = node
        self.node_name = node.metadata.name
        self.client = client
        self.config = config
        self.recorder = EventRecorder(sim, client, f"kubelet-{self.node_name}")
        self.runtimes = runtimes
        self.enhanced_proxy = enhanced_proxy
        self.pod_informer = informer_factory.informer(
            "pods", field_selector={"spec.nodeName": self.node_name})
        self.pod_informer.add_handlers(
            on_add=self._on_pod_add,
            on_update=self._on_pod_update,
            on_delete=self._on_pod_delete,
        )
        self._workers = {}
        self._sandboxes = {}
        self._containers = {}
        self._stopped = False
        self._heartbeat_process = None
        self.pods_started = 0
        self.pods_stopped = 0
        telemetry = telemetry_of(sim)
        self._telemetry = telemetry
        self._started_counter = telemetry.counter(
            "kubelet_pods_started_total", "pods brought to Running",
            labels=("kind",)).labels(kind="node")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Register the node and start watching (coroutine)."""
        try:
            yield from self.client.create(self.node)
        except ApiError:
            pass
        self.pod_informer.start()
        self._heartbeat_process = self.sim.spawn(
            self._heartbeat_loop(), name=f"kubelet-{self.node_name}-hb")

    def stop(self):
        self._stopped = True
        self.pod_informer.stop()
        if self._heartbeat_process is not None:
            self._heartbeat_process.interrupt("kubelet stopped")
        for worker in self._workers.values():
            worker.interrupt("kubelet stopped")

    def _heartbeat_loop(self):
        while not self._stopped:
            try:
                yield self.sim.timeout(self.heartbeat_interval)
            except Interrupt:
                return
            try:
                node = yield from self.client.get("nodes", self.node_name)
            except ApiError:
                continue
            status = node.status.with_condition(
                "Ready", "True", reason="KubeletReady", now=self.sim.now)
            try:
                yield from self.client.update_status(
                    node.replace(status=status))
            except ApiError:
                pass

    # ------------------------------------------------------------------
    # Pod event handling
    # ------------------------------------------------------------------

    def _on_pod_add(self, pod):
        if pod.metadata.deletion_timestamp is not None:
            self._begin_teardown(pod.key)
        elif pod.key not in self._sandboxes and not pod.is_terminal:
            self._start_worker(pod.key, self._sync_pod(pod.key))

    def _on_pod_update(self, old, pod):
        if pod.metadata.deletion_timestamp is not None:
            self._begin_teardown(pod.key)
        elif pod.key not in self._sandboxes and not pod.is_terminal:
            self._start_worker(pod.key, self._sync_pod(pod.key))

    def _on_pod_delete(self, pod):
        self._begin_teardown(pod.key)

    def _begin_teardown(self, pod_key):
        existing = self._workers.pop(pod_key, None)
        if existing is not None and existing.is_alive:
            existing.interrupt("pod deleted")
        self._workers[pod_key] = self.sim.spawn(
            self._safe_teardown(pod_key), name=f"pod-teardown-{pod_key}")

    def _safe_teardown(self, pod_key):
        try:
            yield from self._teardown_pod(pod_key)
        except Interrupt:
            pass

    def _start_worker(self, pod_key, coroutine):
        existing = self._workers.get(pod_key)
        if existing is not None and existing.is_alive:
            coroutine.close()
            return
        self._workers[pod_key] = self.sim.spawn(
            self._guarded(pod_key, coroutine), name=f"pod-worker-{pod_key}")

    def _guarded(self, pod_key, coroutine):
        try:
            yield from coroutine
        except Interrupt:
            pass

    def _runtime_for(self, pod):
        runtime = self.runtimes.get(pod.spec.runtime_class_name)
        if runtime is None:
            runtime = self.runtimes.get(None)
        if runtime is None:
            raise RuntimeError(
                f"no runtime for class {pod.spec.runtime_class_name!r}")
        return runtime

    # ------------------------------------------------------------------
    # Pod sync
    # ------------------------------------------------------------------

    def _sync_pod(self, pod_key):
        yield self.sim.timeout(self.config.kubelet.sync_loop_reaction)
        pod = self.pod_informer.cache.get(pod_key)
        if pod is None or pod.is_terminal or pod_key in self._sandboxes:
            return
        with self._telemetry.span("kubelet.start_pod",
                                  node=self.node_name):
            yield from self._run_pod(pod, pod_key)

    def _run_pod(self, pod, pod_key):
        runtime = self._runtime_for(pod)

        for container in pod.spec.containers + pod.spec.init_containers:
            yield from runtime.pull_image(container.image)
        sandbox = yield from runtime.run_pod_sandbox(pod)
        self._sandboxes[pod_key] = sandbox
        containers = self._containers.setdefault(pod_key, {})

        yield from self._post_status(
            pod_key, phase="Pending", pod_ip=sandbox.ip,
            conditions=[("PodScheduled", "True"), ("Initialized", "False"),
                        ("Ready", "False")])

        # Implicit init step: wait for the enhanced kubeproxy to finish
        # injecting service routing rules into the Kata guest.
        if (self.enhanced_proxy is not None
                and sandbox.runtime == "kata"):
            yield from self._wait_for_routing_rules(sandbox)

        for spec in pod.spec.init_containers:
            container = yield from runtime.create_container(sandbox, spec)
            containers[spec.name] = container
            yield from runtime.start_container(container)
            yield from runtime.stop_container(container)

        yield from self._post_status(
            pod_key, phase="Pending", pod_ip=sandbox.ip,
            conditions=[("Initialized", "True")])

        for spec in pod.spec.containers:
            container = yield from runtime.create_container(sandbox, spec)
            containers[spec.name] = container
            yield from runtime.start_container(container)
            self.recorder.event(pod, "Started",
                                f"Started container {spec.name}")

        self.pods_started += 1
        self._started_counter.inc()
        yield from self._post_status(
            pod_key, phase="Running", pod_ip=sandbox.ip,
            container_names=[c.name for c in pod.spec.containers],
            conditions=[("Initialized", "True"), ("ContainersReady", "True"),
                        ("Ready", "True")])

    def _wait_for_routing_rules(self, sandbox):
        """The ``network-rules-check`` init container's poll loop."""
        agent = sandbox.extra.get("agent")
        if agent is None:
            return
        self.enhanced_proxy.on_sandbox_started(sandbox, agent)
        while not agent.rules_ready:
            yield self.sim.timeout(self.config.network.init_container_poll)

    def _teardown_pod(self, pod_key):
        sandbox = self._sandboxes.pop(pod_key, None)
        containers = self._containers.pop(pod_key, {})
        if sandbox is not None:
            runtime = self._runtime_by_name(sandbox.runtime)
            for container in containers.values():
                if container.state == "running":
                    yield from runtime.stop_container(container)
            yield from runtime.stop_pod_sandbox(sandbox)
            if self.enhanced_proxy is not None and sandbox.runtime == "kata":
                self.enhanced_proxy.on_sandbox_stopped(sandbox)
            self.pods_stopped += 1
        self._workers.pop(pod_key, None)

    def _runtime_by_name(self, name):
        for runtime in self.runtimes.values():
            if runtime.name == name:
                return runtime
        return next(iter(self.runtimes.values()))

    def _post_status(self, pod_key, phase, pod_ip=None, conditions=(),
                     container_names=()):
        """Patch the pod status (kubelet status manager)."""
        yield self.sim.timeout(self.config.kubelet.status_update)
        pod = self.pod_informer.cache.get(pod_key)
        if pod is None:
            try:
                namespace, name = pod_key.split("/", 1)
                pod = yield from self.client.get("pods", name,
                                                 namespace=namespace)
            except ApiError:
                return
        # The cached Pod is a shared snapshot: edit a private status.
        pod = pod.replace(status=pod.status.copy())
        pod.status.phase = phase
        if pod_ip:
            pod.status.pod_ip = pod_ip
        pod.status.host_ip = self._host_ip()
        if pod.status.start_time is None:
            pod.status.start_time = self.sim.now
        for condition_type, status in conditions:
            pod.status.set_condition(condition_type, status,
                                     now=self.sim.now)
        if container_names:
            from repro.objects.pod import ContainerStatus

            pod.status.container_statuses = [
                ContainerStatus(
                    name=name, ready=True,
                    state={"running": {"startedAt": self.sim.now}})
                for name in container_names
            ]
        try:
            yield from self.client.update_status(pod)
        except (Conflict, NotFound):
            pass
        except ApiError:
            # Apiserver outage: retry once the server is back.
            def retry(key=pod_key, ph=phase, ip=pod_ip, conds=conditions,
                      names=container_names):
                yield self.sim.timeout(2.0)
                yield from self._post_status(key, ph, pod_ip=ip,
                                             conditions=conds,
                                             container_names=names)

            self.sim.spawn(retry(), name=f"status-retry-{pod_key}")

    def _host_ip(self):
        for address in self.node.status.addresses:
            if address.type == "InternalIP":
                return address.address
        return None

    # ------------------------------------------------------------------
    # Kubelet server API (proxied by vn-agent for tenants)
    # ------------------------------------------------------------------

    def get_logs(self, namespace, pod_name, container_name=None, tail=None):
        """Return log lines for a container (kubelet /containerLogs)."""
        pod_key = f"{namespace}/{pod_name}"
        containers = self._containers.get(pod_key)
        if not containers:
            raise NotFound(f"pod {pod_key} has no containers on this node")
        if container_name is None:
            container_name = next(iter(containers))
        container = containers.get(container_name)
        if container is None:
            raise NotFound(f"container {container_name!r} not found")
        runtime = self._runtime_by_name(container.sandbox.runtime)
        return runtime.read_logs(container, tail=tail)

    def exec_in_pod(self, namespace, pod_name, command,
                    container_name=None):
        """Coroutine: run a command in a container (kubelet /exec)."""
        pod_key = f"{namespace}/{pod_name}"
        containers = self._containers.get(pod_key)
        if not containers:
            raise NotFound(f"pod {pod_key} has no containers on this node")
        if container_name is None:
            container_name = next(iter(containers))
        container = containers.get(container_name)
        if container is None:
            raise NotFound(f"container {container_name!r} not found")
        runtime = self._runtime_by_name(container.sandbox.runtime)
        result = yield from runtime.exec_in_container(container, command)
        return result

    def sandbox_for(self, namespace, pod_name):
        return self._sandboxes.get(f"{namespace}/{pod_name}")
