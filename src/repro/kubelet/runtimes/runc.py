"""The plain (runc-style) container runtime.

Containers share the node's host network stack — which is exactly why
the stock kubeproxy works for them: the service DNAT rules in the host
iptables apply to their traffic.
"""

from ..cri import (ContainerHandle, ContainerRuntime, ContainerState,
                   SandboxHandle, next_runtime_serial)


class RuncRuntime(ContainerRuntime):
    name = "runc"

    def __init__(self, sim, config, host_stack, pod_ip_allocator):
        self.sim = sim
        self.config = config
        self.host_stack = host_stack
        self._allocate_ip = pod_ip_allocator

    def run_pod_sandbox(self, pod):
        yield self.sim.timeout(0.05)
        return SandboxHandle(
            sandbox_id=f"runc-sb-{next_runtime_serial(self.sim, 'runc'):06d}",
            pod_key=pod.key,
            ip=self._allocate_ip(),
            network_stack=self.host_stack,
            runtime=self.name,
        )

    def stop_pod_sandbox(self, sandbox):
        yield self.sim.timeout(0.02)

    def create_container(self, sandbox, container_spec):
        yield self.sim.timeout(0.01)
        return ContainerHandle(
            container_id=f"runc-c-{next_runtime_serial(self.sim, 'runc'):06d}",
            sandbox=sandbox,
            name=container_spec.name,
            image=container_spec.image,
        )

    def start_container(self, container):
        yield self.sim.timeout(self.config.kubelet.runc_container_start)
        container.state = ContainerState.RUNNING
        container.started_at = self.sim.now
        container.logs.append(
            f"[{self.sim.now:.3f}] {container.name} started")
        return container
