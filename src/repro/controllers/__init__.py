"""Built-in Kubernetes controllers."""

from .base import Controller
from .endpoints import EndpointsController
from .garbage_collector import GarbageCollector
from .manager import ControllerManager
from .namespace_gc import NamespaceController
from .pv_binder import PersistentVolumeBinder
from .replicaset import DeploymentController, ReplicaSetController

__all__ = [
    "Controller",
    "ControllerManager",
    "DeploymentController",
    "EndpointsController",
    "GarbageCollector",
    "NamespaceController",
    "PersistentVolumeBinder",
    "ReplicaSetController",
]
