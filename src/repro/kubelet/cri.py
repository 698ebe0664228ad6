"""The container runtime interface (CRI).

Kubelet talks to runtimes exclusively through this interface — the paper
contrasts its ~25 methods with virtual kubelet's ~7-method provider
interface to explain why vk cannot fully support Pod semantics.  We
implement only the verbs the kubelet in this repo calls: sandbox run and
stop, container create, start and stop, image pull, logs and exec.
"""

import itertools


def next_runtime_serial(sim, runtime_name):
    """The next sandbox/container serial for ``runtime_name`` on ``sim``.

    Counters hang off the Simulation (one independent sequence per
    runtime kind), so IDs are deterministic per run and never leak
    across Simulation instances in one interpreter — a module-level
    counter would hand the second simulation in a process different IDs
    than the first.
    """
    counters = getattr(sim, "_cri_serials", None)
    if counters is None:
        counters = {}
        sim._cri_serials = counters
    counter = counters.get(runtime_name)
    if counter is None:
        counter = itertools.count(1)
        counters[runtime_name] = counter
    return next(counter)


class ContainerState:
    CREATED = "created"
    RUNNING = "running"
    EXITED = "exited"


class SandboxHandle:
    """An opaque reference to a pod sandbox returned by the runtime."""

    __slots__ = ("sandbox_id", "pod_key", "ip", "network_stack", "runtime",
                 "extra")

    def __init__(self, sandbox_id, pod_key, ip=None, network_stack=None,
                 runtime=None, extra=None):
        self.sandbox_id = sandbox_id
        self.pod_key = pod_key
        self.ip = ip
        self.network_stack = network_stack
        self.runtime = runtime
        self.extra = extra or {}


class ContainerHandle:
    """An opaque reference to a created container."""

    __slots__ = ("container_id", "sandbox", "name", "image", "state",
                 "exit_code", "logs", "started_at")

    def __init__(self, container_id, sandbox, name, image):
        self.container_id = container_id
        self.sandbox = sandbox
        self.name = name
        self.image = image
        self.state = ContainerState.CREATED
        self.exit_code = None
        self.logs = []
        self.started_at = None


class ContainerRuntime:
    """What the two runtimes share.  Each runtime implements the sandbox
    verbs (``run_pod_sandbox``, ``stop_pod_sandbox``), ``create_container``
    and ``start_container`` as sim coroutines; the verbs below differ
    between runtimes only in their latency."""

    name = "runtime"
    container_stop_latency = 0.05
    exec_latency = 0.002

    def stop_container(self, container):
        yield self.sim.timeout(self.container_stop_latency)
        container.state = ContainerState.EXITED
        container.exit_code = 0
        return container

    def pull_image(self, image):
        # Virtual-kubelet experiments exclude pull time; real-node examples
        # model a warm local image cache.
        yield self.sim.timeout(0.001)
        return {"image": image}

    # Streaming ----------------------------------------------------------
    def read_logs(self, container, tail=None):
        logs = container.logs
        if tail is not None:
            logs = logs[-tail:]
        return list(logs)

    def exec_in_container(self, container, command):
        yield self.sim.timeout(self.exec_latency)
        if container.state != ContainerState.RUNNING:
            raise RuntimeError(
                f"container {container.name} is not running")
        output = f"exec({' '.join(command)}) in {container.name}"
        container.logs.append(output)
        return output
