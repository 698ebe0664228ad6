"""Unit tests for the data-plane substrate: iptables, VPC, gRPC."""

import pytest

from repro.network import (
    ConnectivityChecker,
    IpTables,
    NetworkStack,
    RpcChannel,
    RpcError,
    RpcServer,
    Vpc,
)
from repro.simkernel import Simulation


class TestIpTables:
    def test_translate_dnat(self):
        table = IpTables()
        table.replace_service("10.96.0.1", 80, [("172.16.0.5", 8080)])
        assert table.translate("10.96.0.1", 80) == ("172.16.0.5", 8080)

    def test_no_rule_returns_none(self):
        assert IpTables().translate("10.96.0.1", 80) is None

    def test_round_robin_endpoint_selection(self):
        table = IpTables()
        endpoints = [("a", 80), ("b", 80)]
        table.replace_service("10.96.0.1", 80, endpoints)
        picks = [table.translate("10.96.0.1", 80) for _ in range(4)]
        assert picks == [("a", 80), ("b", 80), ("a", 80), ("b", 80)]

    def test_replace_updates_endpoints(self):
        table = IpTables()
        table.replace_service("10.96.0.1", 80, [("a", 80)])
        table.replace_service("10.96.0.1", 80, [("b", 80)])
        assert table.translate("10.96.0.1", 80) == ("b", 80)
        assert table.rule_count() == 1

    def test_remove_service(self):
        table = IpTables()
        table.replace_service("10.96.0.1", 80, [("a", 80)])
        table.remove_service("10.96.0.1", 80)
        assert table.translate("10.96.0.1", 80) is None

    def test_port_matters(self):
        table = IpTables()
        table.replace_service("10.96.0.1", 80, [("a", 80)])
        assert table.translate("10.96.0.1", 443) is None
        assert table.translate("10.96.0.2", 80) is None

    def test_generation_counter(self):
        table = IpTables()
        start = table.generation
        table.replace_service("10.96.0.1", 80, [("a", 80)])
        assert table.generation == start + 1

    def test_rule_with_no_endpoints_blackholes(self):
        table = IpTables()
        table.replace_service("10.96.0.1", 80, [])
        assert table.translate("10.96.0.1", 80) is None


class TestVpc:
    def test_attach_allocates_unique_ips(self):
        vpc = Vpc("v1")
        stacks = [NetworkStack(f"s{i}") for i in range(3)]
        ips = {vpc.attach(stack).ip for stack in stacks}
        assert len(ips) == 3

    def test_reachability(self):
        vpc = Vpc("v1")
        stack = NetworkStack("s")
        eni = vpc.attach(stack)
        assert vpc.reachable(eni.ip)
        assert not vpc.reachable("9.9.9.9")

    def test_detach(self):
        vpc = Vpc("v1")
        stack = NetworkStack("s")
        eni = vpc.attach(stack)
        vpc.detach(eni.ip)
        assert not vpc.reachable(eni.ip)
        assert eni.ip not in stack.addresses

    def test_duplicate_ip_rejected(self):
        vpc = Vpc("v1")
        vpc.attach(NetworkStack("a"), ip="172.16.0.9")
        with pytest.raises(ValueError):
            vpc.attach(NetworkStack("b"), ip="172.16.0.9")


class TestConnectivity:
    """The paper's data-plane story in miniature."""

    def _setup(self):
        vpc = Vpc("tenant-vpc")
        guest = NetworkStack("kata-guest")
        backend = NetworkStack("backend-guest")
        vpc.attach(guest, ip="172.16.0.10")
        backend_eni = vpc.attach(backend, ip="172.16.0.20")
        host = NetworkStack("host")
        return vpc, guest, backend_eni, host

    def test_direct_pod_to_pod_works(self):
        vpc, guest, backend_eni, _host = self._setup()
        checker = ConnectivityChecker(vpc)
        assert checker.can_reach(guest, backend_eni.ip, 8080)

    def test_cluster_ip_fails_with_host_only_rules(self):
        """Stock kubeproxy: rules in host iptables; guest traffic bypasses
        the host stack, so the cluster IP is unreachable — the exact
        breakage the paper describes."""
        vpc, guest, backend_eni, host = self._setup()
        host.iptables.replace_service("10.96.0.1", 80,
                                      [(backend_eni.ip, 8080)])
        checker = ConnectivityChecker(vpc)
        assert not checker.can_reach(guest, "10.96.0.1", 80)

    def test_cluster_ip_works_with_guest_rules(self):
        """Enhanced kubeproxy: rules injected into the guest iptables."""
        vpc, guest, backend_eni, _host = self._setup()
        guest.iptables.replace_service("10.96.0.1", 80,
                                       [(backend_eni.ip, 8080)])
        checker = ConnectivityChecker(vpc)
        assert checker.resolve(guest, "10.96.0.1", 80) == \
            (backend_eni.ip, 8080)


class TestRpc:
    def test_call_round_trip(self):
        sim = Simulation()
        server = RpcServer(sim)

        def handler(payload):
            yield sim.timeout(0.001)
            return {"echo": payload["x"]}

        server.register("echo", handler)
        channel = RpcChannel(sim, server, round_trip_latency=0.01)

        def caller():
            result = yield from channel.call("echo", {"x": 42})
            return (result, sim.now)

        result, finished = sim.run(until=sim.process(caller()))
        assert result == {"echo": 42}
        assert finished == pytest.approx(0.011)

    def test_unknown_method_fails(self):
        sim = Simulation()
        server = RpcServer(sim)
        channel = RpcChannel(sim, server, round_trip_latency=0.01)

        def caller():
            try:
                yield from channel.call("nope", {})
            except RpcError:
                return "failed"

        assert sim.run(until=sim.process(caller())) == "failed"

    def test_unhealthy_server_fails(self):
        sim = Simulation()
        server = RpcServer(sim)
        server.register("m", lambda p: iter(()))
        server.healthy = False
        channel = RpcChannel(sim, server, round_trip_latency=0.01)

        def caller():
            try:
                yield from channel.call("m", {})
            except RpcError:
                return "down"

        assert sim.run(until=sim.process(caller())) == "down"
