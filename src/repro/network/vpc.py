"""VPC, ENI, and network-stack models.

The paper's data-plane assumption: tenant containers attach to a tenant
VPC through a vendor network interface (like an AWS ENI), so their
traffic **bypasses the host network stack** — breaking the stock
kubeproxy, whose rules live in the host iptables.  These classes model
just enough to demonstrate the break and the fix.
"""

from .iptables import IpTables


class NetworkStack:
    """A network namespace: its own iptables + attached addresses."""

    def __init__(self, name):
        self.name = name
        self.iptables = IpTables(owner=name)
        self.addresses = set()

    def attach_address(self, ip):
        self.addresses.add(ip)

    def detach_address(self, ip):
        self.addresses.discard(ip)

    def __repr__(self):
        return f"<NetworkStack {self.name}>"


class Eni:
    """An elastic network interface binding a stack into a VPC."""

    __slots__ = ("vpc", "stack", "ip")

    def __init__(self, vpc, stack, ip):
        self.vpc = vpc
        self.stack = stack
        self.ip = ip


class Vpc:
    """A tenant's virtual private cloud: a flat L3 domain of ENIs."""

    def __init__(self, vpc_id, cidr_base="172.16"):
        self.vpc_id = vpc_id
        self.cidr_base = cidr_base
        self._enis = {}
        self._next_ip = 1

    def allocate_ip(self):
        index = self._next_ip
        self._next_ip += 1
        high, low = divmod(index, 254)
        return f"{self.cidr_base}.{high % 254}.{low + 1}"

    def attach(self, stack, ip=None):
        """Create an ENI for a network stack; returns the ENI."""
        ip = ip or self.allocate_ip()
        if ip in self._enis:
            raise ValueError(f"IP {ip} already attached in {self.vpc_id}")
        eni = Eni(self, stack, ip)
        self._enis[ip] = eni
        stack.attach_address(ip)
        return eni

    def detach(self, ip):
        eni = self._enis.pop(ip, None)
        if eni is not None:
            eni.stack.detach_address(ip)

    def reachable(self, ip):
        return ip in self._enis


class ConnectivityChecker:
    """Answers: can this source reach ip:port, given its network stack?

    The resolution path mirrors reality:

    1. the source's own iptables may DNAT a service clusterIP to an
       endpoint address (this is the step that fails when the rules are
       only in the *host* stack but the traffic originates in a Kata
       guest attached to a VPC);
    2. the resulting address must belong to an ENI in the same VPC.
    """

    def __init__(self, vpc):
        self.vpc = vpc

    def resolve(self, src_stack, ip, port):
        """Return the final (ip, port) the connection lands on, or None."""
        translated = src_stack.iptables.translate(ip, port)
        if translated is not None:
            ip, port = translated
        if self.vpc.reachable(ip):
            return (ip, port)
        return None

    def can_reach(self, src_stack, ip, port):
        return self.resolve(src_stack, ip, port) is not None
