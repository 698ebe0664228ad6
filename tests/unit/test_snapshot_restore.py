"""Unit tests for etcd snapshot/restore and storage fencing (DESIGN.md §10).

Snapshot/restore is the durability layer the tenant operator uses to
reprovision a crashed tenant control plane; fencing is the storage-side
split-brain guard HA leaders stamp on downward writes.
"""

import pytest

from repro.apiserver import ADMIN, APIServer, FencingConflict
from repro.objects import make_namespace, make_pod
from repro.objects.base import FrozenError
from repro.simkernel import Simulation
from repro.storage import (
    EtcdStore,
    FencingRevoked,
    RevisionCompacted,
)


@pytest.fixture
def store():
    return EtcdStore(Simulation(), name="test-etcd")


def populate(store, count=3):
    for index in range(count):
        store.create(f"/registry/pods/ns/p{index}", {"v": index})


class TestSnapshotRestore:
    def test_round_trip_is_byte_identical(self, store):
        populate(store)
        store.update("/registry/pods/ns/p0", {"v": 100})
        before = store.dump()
        revision = store.revision
        snapshot = store.snapshot()

        store.update("/registry/pods/ns/p1", {"v": 999})
        store.delete("/registry/pods/ns/p2")
        store.create("/registry/pods/ns/extra", {})
        assert store.dump() != before

        restored_revision = store.restore(snapshot)
        assert restored_revision == revision
        assert store.revision == revision
        assert store.dump() == before

    def test_snapshot_is_isolated_from_later_mutation(self, store):
        populate(store, count=1)
        held, _revision = store.get("/registry/pods/ns/p0")
        snapshot = store.snapshot()
        store.update("/registry/pods/ns/p0", {"v": "changed"})
        # The snapshot shares the stored dict; a later write replaces
        # the store's value and never touches the one the image holds.
        assert snapshot["data"]["/registry/pods/ns/p0"][0] is held
        store.restore(snapshot)
        value, _revision = store.get("/registry/pods/ns/p0")
        assert value == {"v": 0} and value is held

    def test_stores_restored_from_one_image_share_values_safely(self, store):
        """restore(snapshot, replay) hands the same dicts to every store
        built from them; they converge to equal dumps and then diverge
        independently, with nothing required of the caller."""
        populate(store)
        snapshot = store.snapshot()
        store.update("/registry/pods/ns/p0", {"v": "post"})
        store.delete("/registry/pods/ns/p1")
        replay = store.events_since(snapshot["revision"])
        twins = [EtcdStore(Simulation(), name=f"twin-{i}") for i in range(2)]
        for twin in twins:
            twin.restore(snapshot, replay=replay)
            assert twin.dump() == store.dump()
        key = "/registry/pods/ns/p0"
        assert twins[0].get(key)[0] is twins[1].get(key)[0] is \
            store.get(key)[0]
        twins[0].update(key, {"v": "only-here"})
        assert twins[1].dump() == store.dump()
        assert twins[0].get(key)[0] == {"v": "only-here"}
        with pytest.raises(FrozenError):
            twins[1].get(key)[0]["v"] = "leak"

    def test_restore_with_wal_replay_reaches_latest_state(self, store):
        populate(store)
        snapshot = store.snapshot()
        snap_revision = store.revision
        store.update("/registry/pods/ns/p0", {"v": "post"})
        store.delete("/registry/pods/ns/p1")
        store.create("/registry/pods/ns/p9", {"v": 9})
        final = store.dump()
        final_revision = store.revision

        replay = store.events_since(snap_revision)
        store.restore(snapshot, replay=replay)
        assert store.dump() == final
        assert store.revision == final_revision

    def test_replay_skips_events_at_or_before_snapshot(self, store):
        populate(store)
        snapshot = store.snapshot()
        store.update("/registry/pods/ns/p0", {"v": "post"})
        final = store.dump()
        # Hand the *full* history: pre-snapshot events must be skipped
        # (idempotent replay), not applied twice.
        replay = store.events_since(0)
        store.restore(snapshot, replay=replay)
        assert store.dump() == final

    def test_restore_compacts_history(self, store):
        populate(store)
        snapshot = store.snapshot()
        store.restore(snapshot)
        # Nothing before the restore point is replayable: a watcher
        # resuming from an old revision must relist.
        with pytest.raises(RevisionCompacted):
            store.watch("/registry/pods/", from_revision=1)
        with pytest.raises(RevisionCompacted):
            store.events_since(1)

    def test_watch_straddling_restore_is_cancelled(self, store):
        populate(store, count=1)
        snapshot = store.snapshot()
        watch = store.watch("/registry/pods/")
        store.restore(snapshot)
        assert watch.cancelled
        assert watch.channel.closed
        # Events after the restore do not reach the dead watch.
        store.create("/registry/pods/ns/late", {})
        assert len(store._watches) == 0

    def test_events_since_returns_frozen_events(self, store):
        """The tail is the held events themselves; their values are the
        stored dicts, which the guard makes read-only."""
        populate(store, count=1)
        events = store.events_since(0)
        with pytest.raises(FrozenError):
            events[0].value["v"] = "mutated"
        events.clear()      # the list itself is the caller's
        fresh = store.events_since(0)
        assert fresh[0].value == {"v": 0}
        assert fresh[0].value is store.get(fresh[0].key)[0]

    def test_wipe_loses_everything(self, store):
        populate(store)
        store.check_fence("syncer/leader", 3)
        store.wipe()
        assert len(store) == 0
        assert store.revision == 0
        assert store.dump() == {}
        assert store.stats()["fences"] == {}

    def test_fences_survive_snapshot_restore(self, store):
        store.check_fence("syncer/leader", 5)
        snapshot = store.snapshot()
        store.wipe()
        store.restore(snapshot)
        # The deposed leader's lower token still bounces after restore.
        with pytest.raises(FencingRevoked):
            store.check_fence("syncer/leader", 4)


class TestCheckFence:
    def test_tokens_ratchet_upward(self, store):
        store.check_fence("syncer/leader", 1)
        store.check_fence("syncer/leader", 1)  # equal is fine (same term)
        store.check_fence("syncer/leader", 2)
        with pytest.raises(FencingRevoked):
            store.check_fence("syncer/leader", 1)
        assert store.fencing_rejections == 1

    def test_domains_are_independent(self, store):
        store.check_fence("syncer/leader", 7)
        store.check_fence("manager/leader", 1)  # lower token, other domain


class TestTransactionFencing:
    @pytest.fixture
    def api(self):
        sim = Simulation()
        api = APIServer(sim, "test-api")
        sim.run(until=sim.process(api.create(ADMIN, make_namespace("ns"))))
        self.sim = sim
        return api

    def run(self, coroutine):
        return self.sim.run(until=self.sim.process(coroutine))

    def test_fenced_transaction_applies_and_advances_floor(self, api):
        ops = [("create", make_pod("a", namespace="ns"), None)]
        results = self.run(api.transaction(ADMIN, ops,
                                           fencing=("syncer/x", 2)))
        assert not isinstance(results[0], Exception)
        assert api.store._fences["syncer/x"] == 2

    def test_stale_token_raises_fencing_conflict(self, api):
        self.run(api.transaction(ADMIN, [], fencing=("syncer/x", 5)))
        ops = [("create", make_pod("b", namespace="ns"), None)]
        with pytest.raises(FencingConflict):
            self.run(api.transaction(ADMIN, ops, fencing=("syncer/x", 4)))
        # The whole transaction died at the fence: nothing landed.
        with pytest.raises(Exception):
            self.run(api.get(ADMIN, "pods", "b", namespace="ns"))

    def test_empty_fenced_transaction_is_a_barrier(self, api):
        # A new leader issues this before serving: it advances the floor
        # so any deposed leader's in-flight writes die first.
        results = self.run(api.transaction(ADMIN, [],
                                           fencing=("syncer/x", 3)))
        assert results == []
        with pytest.raises(FencingConflict):
            self.run(api.transaction(
                ADMIN, [("create", make_pod("c", namespace="ns"), None)],
                fencing=("syncer/x", 2)))

    def test_unfenced_empty_transaction_is_noop(self, api):
        assert self.run(api.transaction(ADMIN, [])) == []
