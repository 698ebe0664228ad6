"""Controller manager: assembles and runs a control plane's controllers.

Tenant control planes run the full set (they behave like intact
Kubernetes); the super cluster runs them too, plus the scheduler, which
is created separately because tenant control planes deliberately have no
scheduler (paper §III-B(1)).
"""

from .endpoints import EndpointsController
from .garbage_collector import GarbageCollector
from .namespace_gc import NamespaceController
from .pv_binder import PersistentVolumeBinder
from .replicaset import DeploymentController, ReplicaSetController


class ControllerManager:
    """Owns the shared informer factory and the controller set."""

    def __init__(self, sim, client, informer_factory):
        self.sim = sim
        self.client = client
        self.informer_factory = informer_factory
        self.controllers = [
            cls(sim, client, informer_factory)
            for cls in (EndpointsController, NamespaceController,
                        PersistentVolumeBinder, ReplicaSetController,
                        DeploymentController, GarbageCollector)]
        self._started = False

    def start(self):
        if self._started:
            return
        self._started = True
        self.informer_factory.start_all()
        for controller in self.controllers:
            controller.start()

    def stop(self):
        if self._started:
            for controller in self.controllers:
                controller.stop()
        self.informer_factory.stop_all()
        self._started = False
