"""Node lifecycle controller: marks nodes NotReady on missed heartbeats."""

from repro.apiserver.errors import NotFound

from .base import Controller


class NodeLifecycleController(Controller):
    name = "node-lifecycle-controller"

    def __init__(self, sim, client, informer_factory, workers=1,
                 grace_period=4.0, check_interval=1.0):
        super().__init__(sim, client, workers=workers)
        self.grace_period = grace_period
        self.check_interval = check_interval
        self._nodes = informer_factory.informer("nodes")
        self._monitor = None

    def start(self):
        processes = super().start()
        self._monitor = self.sim.spawn(self._monitor_loop(),
                                       name="node-monitor")
        return processes

    def stop(self):
        super().stop()
        if self._monitor is not None:
            self._monitor.interrupt("node lifecycle stopped")

    def _monitor_loop(self):
        from repro.simkernel.errors import Interrupt

        while not self._stopped:
            try:
                yield self.sim.timeout(self.check_interval)
            except Interrupt:
                return
            now = self.sim.now
            for node in self._nodes.cache.items():
                ready = node.status.get_condition("Ready")
                if ready is None:
                    continue
                beat = ready.last_heartbeat_time
                if (ready.status == "True" and beat is not None
                        and now - beat > self.grace_period):
                    self.enqueue(node.key)

    def reconcile(self, key):
        node = self._nodes.cache.get(key)
        if node is None:
            return
        ready = node.status.get_condition("Ready")
        if ready is None or ready.status != "True":
            return
        beat = ready.last_heartbeat_time
        if beat is None or self.sim.now - beat <= self.grace_period:
            return
        status = node.status.copy()
        status.set_condition("Ready", "Unknown", reason="NodeStatusUnknown",
                             now=self.sim.now)
        try:
            yield from self.client.update_status(node.replace(status=status))
        except NotFound:
            pass
