"""WAL unit tests: durability contract of the write-ahead log.

Covers the crash surface one piece at a time — fsync batching,
power-off tail loss, torn tail records, recovery truncation, segment
rolling, and snapshot-anchored compaction (DESIGN.md §13).
"""

import pytest

from repro.objects.base import FrozenError
from repro.simkernel import Simulation
from repro.storage import (
    EVENT_PUT,
    CompactedError,
    EtcdStore,
    WalTornRecord,
    WatchEvent,
    WriteAheadLog,
)


def make_store(sim, name="wal-test", **wal_kwargs):
    wal = WriteAheadLog(sim, name, **wal_kwargs)
    return EtcdStore(sim, name=name, wal=wal)


def fill(store, count, prefix="/registry/pods/ns/p"):
    for index in range(count):
        store.create(f"{prefix}{index:03d}", {"n": index})


class TestAppendAndSync:
    def test_every_append_durable_with_immediate_fsync(self):
        sim = Simulation(seed=1)
        store = make_store(sim)
        fill(store, 5)
        assert store.wal.durable_revision == store.revision
        assert store.wal.durable_lsn == 5

    def test_batched_fsync_leaves_volatile_tail(self):
        sim = Simulation(seed=1)
        store = make_store(sim, fsync_interval=1.0)
        fill(store, 4)
        assert store.wal.durable_revision == 0  # nothing synced yet
        sim.run(until=1.5)  # one fsync tick
        assert store.wal.durable_revision == store.revision

    def test_power_off_drops_unsynced_tail(self):
        sim = Simulation(seed=1)
        store = make_store(sim, fsync_interval=10.0)
        fill(store, 3)
        store.wal.sync()
        fill(store, 2, prefix="/registry/pods/ns/v")  # never fsynced
        dropped = store.wal.power_off()
        assert dropped == 2
        assert store.wal.durable_revision == 3

    def test_segments_roll_at_configured_size(self):
        sim = Simulation(seed=1)
        store = make_store(sim, segment_records=4)
        fill(store, 10)
        assert len(store.wal.segments) == 3


class TestRecovery:
    def test_recover_rebuilds_identical_state(self):
        sim = Simulation(seed=2)
        store = make_store(sim)
        fill(store, 8)
        store.update("/registry/pods/ns/p003", {"n": 333})
        store.delete("/registry/pods/ns/p000")
        expected = dict(store.dump())
        revision = store.revision

        store.power_off()
        assert not store.available
        recovered = store.recover_from_wal()
        assert recovered == revision
        assert store.available
        assert dict(store.dump()) == expected
        assert store.recoveries == 1

    def test_recovered_values_are_shared_and_read_only(self):
        """Recovery applies each decoded record's value as is: reads,
        dump() and the re-anchored snapshot hold that one dict."""
        sim = Simulation(seed=2)
        store = make_store(sim)
        fill(store, 3)
        store.update("/registry/pods/ns/p001", {"n": {"deep": [1]}})
        expected = dict(store.dump())
        store.power_off()
        store.recover_from_wal()
        assert dict(store.dump()) == expected
        key = "/registry/pods/ns/p001"
        value, _rev = store.get(key)
        assert store.dump()[key][0] is value
        assert store.snapshot()["data"][key][0] is value
        with pytest.raises(FrozenError):
            value["n"]["deep"].append(2)

    def test_recover_is_idempotent(self):
        sim = Simulation(seed=2)
        store = make_store(sim)
        fill(store, 6)
        expected = dict(store.dump())
        store.power_off()
        store.recover_from_wal()
        first = dict(store.dump())
        store.recover_from_wal()
        assert dict(store.dump()) == first == expected

    def test_empty_wal_raises_compacted(self):
        sim = Simulation(seed=2)
        store = make_store(sim)
        with pytest.raises(CompactedError):
            store.recover_from_wal()

    def test_recovery_preserves_fencing_floor(self):
        sim = Simulation(seed=2)
        store = make_store(sim)
        fill(store, 2)
        store.check_fence("syncer", 7)
        store.power_off()
        store.recover_from_wal()
        assert store._fences.get("syncer") == 7


class TestTornTail:
    def test_torn_record_fails_checksum(self):
        sim = Simulation(seed=3)
        store = make_store(sim)
        fill(store, 3)
        record = store.wal.tear_tail()
        assert record.torn
        with pytest.raises(WalTornRecord):
            record.decode()

    def test_recovery_keeps_committed_prefix_only(self):
        sim = Simulation(seed=3)
        store = make_store(sim)
        fill(store, 5)
        store.wal.tear_tail()
        store.power_off()
        recovered = store.recover_from_wal()
        assert recovered == 4  # the torn fifth record is dropped
        assert "/registry/pods/ns/p004" not in dict(store.dump())

    def test_recovery_truncates_torn_suffix_for_future_appends(self):
        # After recovering past a tear, new appends must extend a clean
        # log: a second crash/recovery keeps them (nothing stranded
        # behind a torn record).
        sim = Simulation(seed=3)
        store = make_store(sim)
        fill(store, 4)
        store.wal.tear_tail()
        store.power_off()
        store.recover_from_wal()
        fill(store, 2, prefix="/registry/pods/ns/q")
        post_tear = dict(store.dump())
        store.power_off()
        assert store.recover_from_wal() == store.revision
        assert dict(store.dump()) == post_tear


class TestCompaction:
    def test_anchor_drops_covered_segments(self):
        sim = Simulation(seed=4)
        store = make_store(sim, segment_records=4)
        fill(store, 12)
        before = store.wal.record_count
        store.anchor_wal(store.snapshot())
        assert store.wal.record_count < before
        assert store.wal.anchor_revision == store.revision

    def test_records_since_below_anchor_raises(self):
        sim = Simulation(seed=4)
        store = make_store(sim, segment_records=2)
        fill(store, 8)
        store.anchor_wal(store.snapshot())
        with pytest.raises(CompactedError) as err:
            store.wal.records_since(0)
        assert err.value.first_replay_revision == store.wal.anchor_revision

    def test_recover_through_anchor_plus_tail(self):
        sim = Simulation(seed=4)
        store = make_store(sim, segment_records=2)
        fill(store, 6)
        store.anchor_wal(store.snapshot())
        fill(store, 3, prefix="/registry/pods/ns/q")  # post-anchor tail
        expected = dict(store.dump())
        revision = store.revision
        store.power_off()
        assert store.recover_from_wal() == revision
        assert dict(store.dump()) == expected


class TestRestoreReplayGap:
    def test_gapped_replay_raises_compacted_error(self):
        # Snapshot at revision 2, replay starting at revision 5: the
        # events for 3..4 were compacted away, so restore must refuse
        # up front (CompactedError) instead of building a gapped store.
        sim = Simulation(seed=6)
        store = make_store(sim)
        fill(store, 2)
        snapshot = store.snapshot()
        gapped = [WatchEvent(EVENT_PUT, "/registry/pods/ns/z",
                             {"n": 9}, 5)]
        with pytest.raises(CompactedError) as err:
            store.restore(snapshot, replay=gapped)
        assert err.value.snapshot_revision == 2
        assert err.value.first_replay_revision == 5
        # The failed restore mutated nothing.
        assert store.revision == 2
        assert len(dict(store.dump())) == 2

    def test_contiguous_replay_restores_cleanly(self):
        sim = Simulation(seed=6)
        store = make_store(sim)
        fill(store, 2)
        snapshot = store.snapshot()
        fill(store, 2, prefix="/registry/pods/ns/q")
        replay = list(store.events_since(2))
        expected = dict(store.dump())
        store.restore(snapshot, replay=replay)
        assert dict(store.dump()) == expected


class TestDurableState:
    def test_durable_state_matches_store(self):
        sim = Simulation(seed=5)
        store = make_store(sim)
        fill(store, 4)
        store.delete("/registry/pods/ns/p001")
        state = store.wal.durable_state()
        assert set(state) == set(dict(store.dump()))
        for key, (value, mod_revision) in state.items():
            stored, revision = store.get(key)
            assert stored == value
            assert revision == mod_revision

    def test_durable_state_excludes_volatile_tail(self):
        sim = Simulation(seed=5)
        store = make_store(sim, fsync_interval=10.0)
        fill(store, 2)
        store.wal.sync()
        fill(store, 2, prefix="/registry/pods/ns/v")
        state = store.wal.durable_state()
        assert len(state) == 2
        assert all(not key.startswith("/registry/pods/ns/v")
                   for key in state)
