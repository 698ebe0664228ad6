"""Kata sandbox runtime: VM-standard isolation per Pod.

Every sandbox is a lightweight guest VM with its **own network stack and
iptables** and a kata-agent gRPC server inside the guest.  The agent is
"slightly modified" (paper §I) to accept service routing rules from the
enhanced kubeproxy and apply them to the guest iptables — the key to
making cluster-IP services work when pod traffic bypasses the host.
"""

from repro.network import NetworkStack, RpcServer

from ..cri import (ContainerHandle, ContainerRuntime, ContainerState,
                   SandboxHandle, next_runtime_serial)


class KataAgent:
    """The agent inside one guest OS."""

    def __init__(self, sim, config, guest_stack, name):
        self.sim = sim
        self.config = config
        self.guest_stack = guest_stack
        self.rpc = RpcServer(sim, name=f"kata-agent-{name}")
        self.rpc.register("apply_routing_rules", self.apply_routing_rules)
        self.rpc.register("remove_routing_rule", self.remove_routing_rule)
        self.rpc.register("scan_rules", self.scan_rules)
        self.rules_ready = False
        self.rules_applied = 0

    def apply_routing_rules(self, payload):
        """Coroutine RPC handler: install service rules in guest iptables.

        ``payload`` is a list of ``(cluster_ip, port, endpoints)`` plus a
        ``final`` flag marking the initial injection as complete (the
        signal the Pod's init container waits for).
        """
        rules = payload["rules"]
        per_rule = self.config.network.guest_iptable_update_per_rule
        for cluster_ip, port, endpoints in rules:
            yield self.sim.timeout(per_rule)
            self.guest_stack.iptables.replace_service(cluster_ip, port,
                                                      endpoints)
            self.rules_applied += 1
        if payload.get("final"):
            self.rules_ready = True
        return {"applied": len(rules)}

    def remove_routing_rule(self, payload):
        yield self.sim.timeout(
            self.config.network.guest_iptable_update_per_rule)
        self.guest_stack.iptables.remove_service(payload["cluster_ip"],
                                                 payload["port"])
        return {"removed": 1}

    def scan_rules(self, payload):
        """Coroutine RPC handler: enumerate installed rules (periodic scan)."""
        count = self.guest_stack.iptables.rule_count()
        yield self.sim.timeout(
            self.config.network.rule_scan_per_rule * max(count, 1))
        return {
            "rules": [
                (rule.cluster_ip, rule.port, list(rule.endpoints))
                for rule in self.guest_stack.iptables.rules()
            ]
        }


class KataRuntime(ContainerRuntime):
    """CRI runtime that boots a guest VM per sandbox."""

    name = "kata"

    def __init__(self, sim, config, vpc):
        self.sim = sim
        self.config = config
        self.vpc = vpc
        self.sandboxes = {}
        self.agents = {}

    def run_pod_sandbox(self, pod):
        """Boot the guest VM and attach its ENI to the tenant VPC."""
        yield self.sim.timeout(self.config.kubelet.kata_sandbox_boot)
        sandbox_id = f"kata-sb-{next_runtime_serial(self.sim, 'kata'):06d}"
        guest_stack = NetworkStack(name=f"guest-{sandbox_id}")
        eni = self.vpc.attach(guest_stack)
        agent = KataAgent(self.sim, self.config, guest_stack,
                          name=sandbox_id)
        sandbox = SandboxHandle(
            sandbox_id=sandbox_id,
            pod_key=pod.key,
            ip=eni.ip,
            network_stack=guest_stack,
            runtime=self.name,
            extra={"agent": agent, "pod": pod},
        )
        self.sandboxes[sandbox_id] = sandbox
        self.agents[sandbox_id] = agent
        return sandbox

    def stop_pod_sandbox(self, sandbox):
        yield self.sim.timeout(0.3)
        self.sandboxes.pop(sandbox.sandbox_id, None)
        self.agents.pop(sandbox.sandbox_id, None)
        if sandbox.ip:
            self.vpc.detach(sandbox.ip)
        return None

    def remove_pod_sandbox(self, sandbox):
        yield self.sim.timeout(0.01)
        return None

    def pod_sandbox_status(self, sandbox):
        active = sandbox.sandbox_id in self.sandboxes
        return {"id": sandbox.sandbox_id,
                "state": "ready" if active else "notready",
                "ip": sandbox.ip}

    def create_container(self, sandbox, container_spec):
        yield self.sim.timeout(0.02)
        return ContainerHandle(
            container_id=f"kata-c-{next_runtime_serial(self.sim, 'kata'):06d}",
            sandbox=sandbox,
            name=container_spec.name,
            image=container_spec.image,
        )

    def start_container(self, container):
        yield self.sim.timeout(self.config.kubelet.kata_container_start)
        container.state = ContainerState.RUNNING
        container.started_at = self.sim.now
        container.logs.append(
            f"[{self.sim.now:.3f}] {container.name} started in guest")
        return container

    def stop_container(self, container):
        yield self.sim.timeout(0.08)
        container.state = ContainerState.EXITED
        container.exit_code = 0
        return container

    def remove_container(self, container):
        yield self.sim.timeout(0.005)
        return None

    def exec_in_container(self, container, command):
        yield self.sim.timeout(0.004)
        if container.state != ContainerState.RUNNING:
            raise RuntimeError(f"container {container.name} is not running")
        output = f"exec({' '.join(command)}) in guest {container.name}"
        container.logs.append(output)
        return output

    def pull_image(self, image):
        yield self.sim.timeout(0.001)
        return {"image": image}

    def agent_for(self, sandbox):
        return self.agents.get(sandbox.sandbox_id)
