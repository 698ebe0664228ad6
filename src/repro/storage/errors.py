"""Storage-layer errors, mirroring etcd/apiserver failure modes."""


class StorageError(Exception):
    """Base class for storage errors."""


class KeyNotFound(StorageError):
    """Read/update/delete of a key that does not exist."""

    def __init__(self, key):
        super().__init__(f"key not found: {key}")
        self.key = key


class KeyAlreadyExists(StorageError):
    """Create of a key that already exists."""

    def __init__(self, key):
        super().__init__(f"key already exists: {key}")
        self.key = key


class RevisionConflict(StorageError):
    """Compare-and-swap failed: the stored revision moved."""

    def __init__(self, key, expected, actual):
        super().__init__(
            f"conflict on {key}: expected revision {expected}, found {actual}"
        )
        self.key = key
        self.expected = expected
        self.actual = actual


class RevisionCompacted(StorageError):
    """A watch asked to start from an already-compacted revision."""

    def __init__(self, requested, compacted):
        super().__init__(
            f"revision {requested} compacted (oldest available {compacted})"
        )
        self.requested = requested
        self.compacted = compacted


class CompactedError(StorageError):
    """Replay would have to cross a compaction boundary.

    Raised when a recovery path (WAL replay into :meth:`EtcdStore.restore`,
    or a follower catching up from a leader's compacted log) detects a gap
    between the snapshot revision and the first replayable record.  The
    caller must fall back to a full snapshot/state transfer — silently
    skipping the gap would resurrect a store missing committed writes.
    """

    def __init__(self, snapshot_revision, first_replay_revision):
        super().__init__(
            f"replay gap: snapshot at revision {snapshot_revision}, "
            f"first replayable record at {first_replay_revision}"
        )
        self.snapshot_revision = snapshot_revision
        self.first_replay_revision = first_replay_revision


class WalTornRecord(StorageError):
    """A WAL record failed its checksum (torn tail after kill -9).

    Recovery never surfaces this to callers — the decoder truncates the
    log at the first torn record, recovering the committed prefix — but
    direct record decoding raises it so tests and the corruption fault
    can observe the tear.
    """

    def __init__(self, revision):
        super().__init__(
            f"torn WAL record at revision {revision}: checksum mismatch")
        self.revision = revision


class StoreUnavailable(StorageError):
    """The store is down: powered off, or suspended by its replica group.

    The apiserver swaps this for its retryable ``ServerUnavailable`` via
    :meth:`EtcdStore.set_unavailable_factory` on the store it serves
    from, so clients treat a leaderless storage window exactly like an
    apiserver outage.
    """


class FencingRevoked(StorageError):
    """A write carried a fencing token older than the highest one seen.

    Raised by :meth:`EtcdStore.check_fence` when a deposed leader's
    in-flight write arrives after its successor has already written with
    a newer token; the write must be dropped, not retried.
    """

    def __init__(self, domain, token, current):
        super().__init__(
            f"fencing token {token} for {domain!r} revoked "
            f"(current {current})"
        )
        self.domain = domain
        self.token = token
        self.current = current
