"""etcd-like MVCC storage for control planes."""

from .errors import (
    CompactedError,
    FencingRevoked,
    KeyAlreadyExists,
    KeyNotFound,
    RevisionCompacted,
    RevisionConflict,
    StorageError,
    StoreUnavailable,
    WalTornRecord,
)
from .etcd import EVENT_DELETE, EVENT_PUT, EtcdStore, Watch, WatchEvent
from .replicated import StoreGroup, StoreReplica
from .wal import WalRecord, WriteAheadLog

__all__ = [
    "EVENT_DELETE",
    "EVENT_PUT",
    "CompactedError",
    "EtcdStore",
    "FencingRevoked",
    "KeyAlreadyExists",
    "KeyNotFound",
    "RevisionCompacted",
    "RevisionConflict",
    "StorageError",
    "StoreGroup",
    "StoreReplica",
    "StoreUnavailable",
    "WalRecord",
    "WalTornRecord",
    "Watch",
    "WatchEvent",
    "WriteAheadLog",
]
