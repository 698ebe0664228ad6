"""WAL unit tests: durability contract of the write-ahead log.

Covers the crash surface one piece at a time — fsync batching,
power-off tail loss, torn tail records, recovery truncation, and
snapshot-anchored compaction, by hand and by the store itself
(DESIGN.md §13).
"""

from dataclasses import replace

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core import VirtualClusterEnv
from repro.objects.base import FrozenError
from repro.simkernel import Simulation
from repro.storage import (
    CompactedError,
    EtcdStore,
    StoreUnavailable,
    WalTornRecord,
    WriteAheadLog,
)
from repro.storage.etcd import ANCHOR_INTERVAL


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
        assert store.wal.durable == len(store.wal.records) == 5

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


class TestRecovery:
    def test_recover_rebuilds_identical_state(self):
        sim = Simulation(seed=2)
        store = make_store(sim)
        fill(store, 8)
        store.update("/registry/pods/ns/p003", {"n": 333})
        store.delete("/registry/pods/ns/p000")
        expected = store.snapshot()["data"]
        revision = store.revision

        store.power_off()
        assert not store.available
        recovered = store.recover_from_wal()
        assert recovered == revision
        assert store.available
        assert store.snapshot()["data"] == expected
        assert store.recoveries == 1

    def test_powered_off_store_refuses_reads_instead_of_reading_empty(self):
        """A dead store is unavailable, not empty: every read raises
        StoreUnavailable (a caller must not conclude NotFound), while a
        hold still releases into it."""
        sim = Simulation(seed=2)
        store = make_store(sim)
        fill(store, 3)
        key = "/registry/pods/ns/p001"
        store.power_off()
        reads = [
            lambda: store.get(key),
            lambda: store.get_stored(key),
            lambda: store.try_get(key),
            lambda: store.try_get_stored(key),
            lambda: store.watch("/registry/pods/", from_revision=0),
            lambda: store.list_prefix("/registry/pods/"),
            lambda: store.check_fence("syncer", 1),
        ]
        for read in reads:
            with pytest.raises(StoreUnavailable):
                read()
        store.hold(0)()
        store.recover_from_wal()
        assert store.get(key) == ({"n": 1}, 2)
        assert len(store.list_prefix("/registry/pods/")[0]) == 3

    def test_recovered_values_are_shared_and_read_only(self):
        """Recovery applies each decoded record's value as is: reads and
        the re-anchored snapshot hold that one dict."""
        sim = Simulation(seed=2)
        store = make_store(sim)
        fill(store, 3)
        store.update("/registry/pods/ns/p001", {"n": {"deep": [1]}})
        expected = store.snapshot()["data"]
        store.power_off()
        store.recover_from_wal()
        assert store.snapshot()["data"] == expected
        key = "/registry/pods/ns/p001"
        value, _rev = store.get(key)
        assert store.snapshot()["data"][key][0] is value
        with pytest.raises(FrozenError):
            value["n"]["deep"].append(2)

    def test_recover_is_idempotent(self):
        sim = Simulation(seed=2)
        store = make_store(sim)
        fill(store, 6)
        expected = store.snapshot()["data"]
        store.power_off()
        store.recover_from_wal()
        first = store.snapshot()["data"]
        store.recover_from_wal()
        assert store.snapshot()["data"] == first == expected

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
        whole = store.wal.records[-1]
        record = store.wal.tear_tail()
        assert record.torn and not whole.torn
        assert store.wal.records[-1] is record
        with pytest.raises(WalTornRecord, match="revision 3"):
            record.decode()

    def test_recovery_keeps_committed_prefix_only(self):
        sim = Simulation(seed=3)
        store = make_store(sim)
        fill(store, 5)
        store.wal.tear_tail()
        store.power_off()
        recovered = store.recover_from_wal()
        assert recovered == 4  # the torn fifth record is dropped
        assert "/registry/pods/ns/p004" not in store.snapshot()["data"]

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
        post_tear = store.snapshot()["data"]
        store.power_off()
        assert store.recover_from_wal() == store.revision
        assert store.snapshot()["data"] == post_tear


class TestCompaction:
    def test_anchor_drops_covered_records(self):
        sim = Simulation(seed=4)
        store = make_store(sim)
        fill(store, 12)
        assert store.wal.compact(store.snapshot()) == 12
        assert store.wal.records == []
        assert store.wal.anchor_revision == store.revision

    def test_anchor_keeps_the_volatile_tail(self):
        """Only synced records go: a covered volatile record stays, and
        the durable watermark moves down with the dropped prefix."""
        sim = Simulation(seed=4)
        store = make_store(sim, fsync_interval=10.0)
        fill(store, 3)
        store.wal.sync()
        fill(store, 2, prefix="/registry/pods/ns/v")
        assert store.wal.compact(store.snapshot()) == 3
        assert [r.revision for r in store.wal.records] == [4, 5]
        assert store.wal.durable == 0
        assert store.wal.durable_revision == store.revision

    def test_store_anchors_its_own_log(self):
        """Retention is the store's own rule: at ``ANCHOR_INTERVAL``
        revisions past the anchor it anchors the log to a snapshot, so
        the log never holds more records than that, and recovery goes
        through the anchor."""
        sim = Simulation(seed=4)
        store = make_store(sim)
        fill(store, ANCHOR_INTERVAL - 1)
        assert store.wal.anchor is None
        fill(store, ANCHOR_INTERVAL + 10, prefix="/registry/pods/ns/q")
        assert store.wal.anchor_revision == 2 * ANCHOR_INTERVAL
        assert [r.revision for r in store.wal.records] == list(range(
            2 * ANCHOR_INTERVAL + 1, store.revision + 1))
        expected = store.snapshot()["data"]
        store.power_off()
        assert store.recover_from_wal() == 2 * ANCHOR_INTERVAL + 9
        assert store.snapshot()["data"] == expected

    def test_store_behind_anchor_catches_up_through_it(self):
        """The records a store behind the anchor needs are compacted
        away: it rolls to the anchor (fence floors included) and then
        applies the tail after it."""
        sim = Simulation(seed=4)
        store = make_store(sim)
        fill(store, 3)
        behind = EtcdStore(sim, name="behind")
        behind.catch_up(store.wal)
        assert behind.revision == 3
        fill(store, 5, prefix="/registry/pods/ns/q")
        store.check_fence("syncer", 4)
        store.wal.compact(store.snapshot())
        fill(store, 2, prefix="/registry/pods/ns/r")
        # 1..8 and the fence record are compacted away.
        assert [r.revision for r in store.wal.committed()] == [9, 10]
        assert behind.catch_up(store.wal) == 2
        assert behind.snapshot()["data"] == store.snapshot()["data"]
        assert behind.revision == store.revision
        assert behind.snapshot()["fences"] == {"syncer": 4}

    def test_recover_through_anchor_plus_tail(self):
        sim = Simulation(seed=4)
        store = make_store(sim)
        fill(store, 6)
        store.wal.compact(store.snapshot())
        fill(store, 3, prefix="/registry/pods/ns/q")  # post-anchor tail
        expected = store.snapshot()["data"]
        revision = store.revision
        store.power_off()
        assert store.recover_from_wal() == revision
        assert store.snapshot()["data"] == expected


class TestRestoreReplayGap:
    def test_gapped_replay_raises_compacted_error(self):
        # A store at revision 2 handed the record for revision 5: the
        # records for 3..4 were compacted away, so apply must refuse
        # (CompactedError) instead of building a gapped store.
        sim = Simulation(seed=6)
        source = make_store(sim, name="source")
        fill(source, 5)
        store = make_store(sim)
        fill(store, 2)
        before = store.snapshot()["data"]
        gapped = source.wal.committed()[-1]
        with pytest.raises(CompactedError) as err:
            store.apply(gapped)
        assert err.value.snapshot_revision == 2
        assert err.value.first_replay_revision == 5
        # The refused record mutated nothing, not even the store's log.
        assert store.revision == 2
        assert store.snapshot()["data"] == before
        assert len(store.wal.records) == 2

    def test_contiguous_replay_restores_cleanly(self):
        sim = Simulation(seed=6)
        store = make_store(sim)
        fill(store, 2)
        snapshot = store.snapshot()
        fill(store, 2, prefix="/registry/pods/ns/q")
        twin = make_store(sim, name="twin")
        twin.restore(snapshot)
        assert twin.catch_up(store.wal) == 2
        assert twin.snapshot()["data"] == store.snapshot()["data"]
        # The twin logged what it applied: its own log rebuilds it.
        twin.power_off()
        twin.recover_from_wal()
        assert twin.snapshot()["data"] == store.snapshot()["data"]


class TestDurableState:
    def test_durable_state_matches_store(self):
        sim = Simulation(seed=5)
        store = make_store(sim)
        fill(store, 4)
        store.delete("/registry/pods/ns/p001")
        state = store.wal.durable_state()
        assert set(state) == set(store.snapshot()["data"])
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


class TestRetention:
    # The hot-path benchmark's deployment: sharded fair queue, batched
    # multi-op txn writes, a fast scheduler and a WAL under every store.
    HOTPATH_WAL = DEFAULT_CONFIG.with_overrides(
        syncer=replace(DEFAULT_CONFIG.syncer, dispatch_shards=4,
                       downward_batch_max=8),
        scheduler=replace(DEFAULT_CONFIG.scheduler, service_time=0.0002),
        storage=replace(DEFAULT_CONFIG.storage, wal_enabled=True))
    PODS = 700

    def test_super_log_stays_below_the_anchor_interval(self):
        """The super store's log is anchored by the store itself: after
        more than two anchor intervals of synced writes it holds fewer
        records than one interval, and so does the tenant's."""
        env = VirtualClusterEnv(seed=11, config=self.HOTPATH_WAL,
                                num_virtual_nodes=4)
        env.bootstrap()
        tenant = env.run_coroutine(env.create_tenant("solo"))
        env.run_for(1.0)
        names = [f"p{index:03d}" for index in range(self.PODS)]
        for name in names:
            env.run_coroutine(tenant.create_pod(name))
        env.run_until_pods_ready(tenant, [f"default/{name}"
                                          for name in names], timeout=600.0)
        store = env.super_cluster.api.store
        assert store.revision > 2 * ANCHOR_INTERVAL
        assert store.wal.anchor_revision > 0
        assert len(store.wal.records) < ANCHOR_INTERVAL
        tenant_log = tenant.control_plane.api.store.wal
        assert len(tenant_log.records) < ANCHOR_INTERVAL
