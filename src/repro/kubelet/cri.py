"""The container runtime interface (CRI).

Kubelet talks to runtimes exclusively through this interface — the paper
contrasts its ~25 methods with virtual kubelet's ~7-method provider
interface to explain why vk cannot fully support Pod semantics.  We
implement the subset that the kubelet in this repo exercises, with the
full method list stubbed in the abstract base so runtimes are honest
about what they support.
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
    """Abstract CRI runtime; all mutating methods are sim coroutines."""

    name = "runtime"

    # Sandbox lifecycle -------------------------------------------------
    def run_pod_sandbox(self, pod):
        raise NotImplementedError

    def stop_pod_sandbox(self, sandbox):
        raise NotImplementedError

    def remove_pod_sandbox(self, sandbox):
        raise NotImplementedError

    def pod_sandbox_status(self, sandbox):
        raise NotImplementedError

    # Container lifecycle ------------------------------------------------
    def create_container(self, sandbox, container_spec):
        raise NotImplementedError

    def start_container(self, container):
        raise NotImplementedError

    def stop_container(self, container):
        raise NotImplementedError

    def remove_container(self, container):
        raise NotImplementedError

    def container_status(self, container):
        return {
            "id": container.container_id,
            "state": container.state,
            "exitCode": container.exit_code,
        }

    # Streaming ----------------------------------------------------------
    def read_logs(self, container, tail=None):
        logs = container.logs
        if tail is not None:
            logs = logs[-tail:]
        return list(logs)

    def exec_in_container(self, container, command):
        raise NotImplementedError

    # Images (modelled as instantaneous local cache hits) ----------------
    def pull_image(self, image):
        raise NotImplementedError

    def image_status(self, image):
        return {"image": image, "present": True}
