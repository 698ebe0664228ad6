"""client-go analogue: clients, reflectors, informers, work queues."""

from .backoff import JitteredBackoff
from .cache import (
    INDEX_LABELS,
    INDEX_NAMESPACE,
    ObjectCache,
    estimate_object_bytes,
)
from .client import Client, TokenBucket
from .fairqueue import FairWorkQueue, shard_hash
from .informer import InformerFactory, SharedInformer
from .leaderelection import LEASE_NAMESPACE, LeaderElector
from .reflector import ADDED, DELETED, MODIFIED, Reflector
from .workqueue import RateLimitingQueue, ShutDown, WorkQueue

__all__ = [
    "ADDED",
    "Client",
    "DELETED",
    "FairWorkQueue",
    "INDEX_LABELS",
    "INDEX_NAMESPACE",
    "InformerFactory",
    "JitteredBackoff",
    "LEASE_NAMESPACE",
    "LeaderElector",
    "MODIFIED",
    "ObjectCache",
    "RateLimitingQueue",
    "Reflector",
    "SharedInformer",
    "ShutDown",
    "TokenBucket",
    "WorkQueue",
    "estimate_object_bytes",
    "shard_hash",
]
