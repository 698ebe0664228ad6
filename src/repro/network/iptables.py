"""A simulated iptables NAT table.

Models exactly what kubeproxy programs: DNAT rules translating a service
virtual IP (clusterIP:port) into one of the service's endpoint addresses.
Every rule is TCP, so a rule is keyed by address and port alone.
Rules live in chains per service, like the KUBE-SERVICES / KUBE-SVC-*
layout; lookup picks endpoints round-robin (the iptables statistic-module
behaviour, deterministic here).
"""


class NatRule:
    """One DNAT rule: (cluster_ip, port) -> endpoints."""

    __slots__ = ("cluster_ip", "port", "endpoints", "_rr")

    def __init__(self, cluster_ip, port, endpoints):
        self.cluster_ip = cluster_ip
        self.port = port
        self.endpoints = list(endpoints)  # (ip, port) pairs
        self._rr = 0

    def pick(self):
        if not self.endpoints:
            return None
        endpoint = self.endpoints[self._rr % len(self.endpoints)]
        self._rr += 1
        return endpoint


class IpTables:
    """The NAT table of one network stack (host or Kata guest)."""

    def __init__(self, owner="host"):
        self.owner = owner
        self._rules = {}
        self.update_count = 0
        self.generation = 0

    def replace_service(self, cluster_ip, port, endpoints):
        """Install or update the DNAT rule for one service port."""
        self._rules[(cluster_ip, port)] = NatRule(cluster_ip, port, endpoints)
        self.update_count += 1
        self.generation += 1

    def remove_service(self, cluster_ip, port):
        if self._rules.pop((cluster_ip, port), None) is not None:
            self.update_count += 1
            self.generation += 1

    def flush(self):
        self._rules.clear()
        self.generation += 1

    def translate(self, ip, port):
        """DNAT lookup; returns an (ip, port) endpoint or None."""
        rule = self._rules.get((ip, port))
        if rule is None:
            return None
        return rule.pick()

    def rules(self):
        return list(self._rules.values())

    def rule_count(self):
        return len(self._rules)
