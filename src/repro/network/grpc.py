"""A simulated gRPC transport.

Used for the secure channel between the enhanced kubeproxy and the Kata
agent inside each guest OS (paper §III-B(4)-(5)): the proxy pushes
service routing rules over this channel into the guest's iptables.
"""


class RpcError(Exception):
    """The remote handler raised or the channel is down."""


class RpcServer:
    """Registers named handlers; handlers are sim coroutines."""

    def __init__(self, sim, name="rpc-server"):
        self.sim = sim
        self.name = name
        self._handlers = {}
        self.healthy = True
        self.calls_served = 0

    def register(self, method, handler):
        """``handler(payload)`` must be a coroutine function."""
        self._handlers[method] = handler

    def dispatch(self, method, payload):
        """Coroutine: run the handler for ``method``."""
        if not self.healthy:
            raise RpcError(f"{self.name} is down")
        handler = self._handlers.get(method)
        if handler is None:
            raise RpcError(f"{self.name}: no handler for {method!r}")
        self.calls_served += 1
        result = yield from handler(payload)
        return result


class RpcChannel:
    """Client side: request/response with a round-trip latency."""

    def __init__(self, sim, server, round_trip_latency):
        self.sim = sim
        self.server = server
        self.round_trip_latency = round_trip_latency
        self.calls_made = 0

    def call(self, method, payload):
        """Coroutine: invoke ``method`` on the remote server."""
        self.calls_made += 1
        yield self.sim.timeout(self.round_trip_latency / 2)
        result = yield from self.server.dispatch(method, payload)
        yield self.sim.timeout(self.round_trip_latency / 2)
        return result
