"""Property-based tests for the write-ahead log (DESIGN.md §13).

Two invariants carry the durability story:

- **Replay is idempotent and order-preserving**: recovering a store
  from its WAL reproduces exactly the state the mutations built, and
  recovering again changes nothing.
- **Crash at any record boundary recovers a committed prefix**: however
  many records were fsynced when the power went out — and even with the
  last one torn mid-write — recovery yields the state after the first
  K committed mutations, never a torn suffix or a gap.

And the one replay path agrees with the reference: catching a store up
to a log (:meth:`EtcdStore.catch_up`) from any start point lands on
exactly :meth:`WriteAheadLog.durable_state` and the log's fence floors.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simkernel import Simulation
from repro.storage import (
    EtcdStore,
    FencingRevoked,
    KeyAlreadyExists,
    KeyNotFound,
    WriteAheadLog,
)
from repro.storage.etcd import FENCE

keys = st.sampled_from([f"/registry/pods/ns/{c}" for c in "abcde"])
values = st.dictionaries(st.sampled_from(["x", "y"]),
                         st.integers(0, 9), max_size=2)
operations = st.lists(
    st.tuples(st.sampled_from(["create", "update", "delete"]), keys, values),
    min_size=1, max_size=30,
)


def make_store(fsync_interval=0.0):
    sim = Simulation(seed=0)
    wal = WriteAheadLog(sim, "props", fsync_interval=fsync_interval)
    return EtcdStore(sim, name="props", wal=wal)


def apply_one(store, op, key, value):
    """Apply one mutation; returns True when the store changed."""
    try:
        if op == "create":
            store.create(key, value)
        elif op == "update":
            store.update(key, value)
        else:
            store.delete(key)
        return True
    except (KeyAlreadyExists, KeyNotFound):
        return False


def model_states(ops):
    """The model dict after each *effective* mutation (prefix states).

    ``states[k]`` is the expected store content once exactly the first
    ``k`` committed records have been replayed; ``states[0]`` is empty.
    """
    model = {}
    scratch = make_store()
    states = [dict(model)]
    for op, key, value in ops:
        if apply_one(scratch, op, key, value):
            if op == "delete":
                model.pop(key, None)
            else:
                model[key] = value
            states.append(dict(model))
    return states


def store_content(store):
    items, _revision = store.list_prefix("/registry/pods/")
    return {key: value for key, value, _rev in items}


@given(operations)
@settings(max_examples=100, deadline=None)
def test_wal_replay_is_idempotent_and_order_preserving(ops):
    store = make_store()
    for op, key, value in ops:
        apply_one(store, op, key, value)
    expected = store_content(store)
    revision = store.revision

    store.power_off()
    if revision == 0:
        # No mutation took effect: the log is empty and recovery says so.
        from repro.storage import CompactedError
        import pytest

        with pytest.raises(CompactedError):
            store.recover_from_wal()
        return
    assert store.recover_from_wal() == revision
    assert store_content(store) == expected
    # Idempotence: a second replay of the same log is a no-op.
    assert store.recover_from_wal() == revision
    assert store_content(store) == expected


@given(operations, st.integers(min_value=0, max_value=30),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_crash_at_any_boundary_recovers_committed_prefix(ops, synced, torn):
    """Sync the first ``synced`` records, optionally tear the last
    synced one, kill -9 — recovery must equal the model state after
    the committed prefix, never a torn suffix."""
    store = make_store(fsync_interval=1e9)  # manual fsync only
    for op, key, value in ops:
        apply_one(store, op, key, value)
        if len(store.wal.records) == synced:
            store.wal.sync()
    states = model_states(ops)
    total = len(states) - 1
    # The one sync fires only when the log reaches exactly ``synced``
    # records; a larger target means the power died before any fsync.
    committed = synced if synced <= total else 0

    store.power_off()  # volatile tail gone (never reached the disk)
    if torn and committed > 0:
        # The last record that *did* hit the disk was torn mid-write.
        store.wal.tear_tail()
        committed -= 1
    if committed == 0:
        # Nothing durable: recovery reports an empty/gapped log and the
        # store stays empty.
        from repro.storage import CompactedError

        try:
            store.recover_from_wal()
        except CompactedError:
            store.wipe()
        assert store_content(store) == {}
        return
    store.recover_from_wal()
    assert store_content(store) == states[committed], (
        f"crash after {committed} committed records did not recover "
        f"that exact prefix")
    assert store.revision == committed


@given(operations)
@settings(max_examples=50, deadline=None)
def test_recovery_after_anchor_preserves_full_state(ops):
    """Snapshot-anchored compaction never loses post-anchor records."""
    store = make_store()
    half = max(1, len(ops) // 2)
    for op, key, value in ops[:half]:
        apply_one(store, op, key, value)
    store.wal.compact(store.snapshot())
    for op, key, value in ops[half:]:
        apply_one(store, op, key, value)
    expected = store_content(store)
    revision = store.revision
    store.power_off()
    assert store.recover_from_wal() == revision
    assert store_content(store) == expected


# Writes, fence advances (and stale tokens), anchors and fsync points.
steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["create", "update", "delete"]), keys,
                  values),
        st.tuples(st.just("fence"), st.sampled_from(["d1", "d2"]),
                  st.integers(1, 6)),
        st.tuples(st.sampled_from(["anchor", "sync"]), st.none(),
                  st.none()),
    ),
    min_size=1, max_size=40,
)


def run_step(store, step):
    kind, key, arg = step
    if kind == "fence":
        try:
            store.check_fence(key, arg)
        except FencingRevoked:
            pass
    elif kind == "anchor":
        # The call the store's own anchoring makes.
        if store.wal is not None:
            store.wal.compact(store.snapshot())
    elif kind == "sync":
        if store.wal is not None:
            store.wal.sync()
    else:
        apply_one(store, kind, key, arg)


def replayed(steps_run):
    """A log-less store that ran ``steps_run`` itself."""
    store = EtcdStore(Simulation(seed=0), name="start")
    for step in steps_run:
        run_step(store, step)
    return store


def count_appends(wal):
    """Count ``wal``'s appends (the test's log sequence numbers): the
    returned list's one item is the number of records ever appended."""
    count = [0]
    append = wal.append

    def counted(record):
        count[0] += 1
        append(record)

    wal.append = counted
    return count


def log_fences(wal):
    """Fence floors the log holds: its anchor's, raised by every
    committed fence record."""
    fences = dict(wal.anchor["fences"]) if wal.anchor is not None else {}
    for record in wal.committed():
        if record.type == FENCE:
            token = record.decode()["token"]
            fences[record.key] = max(fences.get(record.key, token), token)
    return fences


@given(steps, st.booleans(), st.integers(min_value=0, max_value=40))
# An anchor over a volatile record: the committed prefix ends below the
# anchor revision, and its covered records must not overwrite it.
@example([("create", "/registry/pods/ns/a", {"x": 1}), ("sync", None, None),
          ("update", "/registry/pods/ns/a", {"x": 2}),
          ("anchor", None, None)], False, 0)
# A torn tail past the anchor: the tail's last record is lost, the
# anchor and the fence record before the tear are not.
@example([("create", "/registry/pods/ns/a", {"x": 1}),
          ("update", "/registry/pods/ns/a", {"x": 2}), ("sync", None, None),
          ("anchor", None, None), ("fence", "d1", 3),
          ("create", "/registry/pods/ns/b", {"y": 1}),
          ("sync", None, None)], True, 2)
@settings(max_examples=150, deadline=None)
def test_catch_up_from_any_start_matches_durable_state(run, torn, cut):
    """Catching up a fresh store, a store mid-log and a store behind the
    anchor each gives exactly the durable state and fence floors."""
    source = make_store(fsync_interval=1e9)  # fsync only at "sync" steps
    appended = count_appends(source.wal)
    after = []                                # (appends so far, revision)
    for step in run:
        run_step(source, step)
        after.append((appended[0], source.revision))
    wal = source.wal
    if torn:
        wal.tear_tail()
    committed = wal.committed()
    # The log keeps a suffix of its appends.  The first record past the
    # committed prefix is append number ``end``: a start store may have
    # run only steps whose records all lie before it.
    end = appended[0] - len(wal.records) + len(committed)
    usable = [revision for count, revision in after if count <= end]
    starts = {"fresh": 0, "mid-log": min(cut, len(usable))}
    if wal.anchor_revision:
        starts["behind anchor"] = sum(1 for revision in usable
                                      if revision < wal.anchor_revision)
    expected = wal.durable_state()
    revision = max([wal.anchor_revision]
                   + [r.revision for r in committed if r.type != FENCE])
    for name, count in starts.items():
        store = replayed(run[:count])
        store.catch_up(wal)
        image = store.snapshot()["data"]
        assert {key: (value, mod_revision) for key, (value, _create,
                mod_revision, _version) in image.items()} == expected, name
        assert store.snapshot()["fences"] == log_fences(wal), name
        assert store.revision == revision, name
        assert store.catch_up(wal) == 0, name
