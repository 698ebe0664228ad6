"""ReplicatedStore unit tests: WAL streaming, fenced failover, stale
reads, and crash recovery of the store group (DESIGN.md §13)."""

import pytest

from repro.objects.base import FrozenError
from repro.simkernel import Simulation
from repro.storage import (
    CompactedError,
    ReplicatedStore,
    StaleRead,
    StoreUnavailable,
)


def make_group(seed=1, replicas=3, **kwargs):
    sim = Simulation(seed=seed)
    store = ReplicatedStore(sim, "grp", replicas=replicas, **kwargs)
    return sim, store


def fill(store, count, prefix="/registry/pods/ns/p"):
    for index in range(count):
        store.create(f"{prefix}{index:03d}", {"n": index})


def settle(sim, store, timeout=5.0):
    """Run until every live follower has applied the leader's log."""
    deadline = sim.now + timeout
    while sim.now < deadline:
        followers = [r for r in store.replicas
                     if r.alive and r.role == "follower"]
        if followers and all(r.lag == 0 for r in followers):
            return
        sim.run(until=sim.now + 0.05)
    raise AssertionError(
        f"followers never caught up: "
        f"{[(r.name, r.role, r.lag) for r in store.replicas]}")


class TestReplication:
    def test_writes_stream_to_all_followers(self):
        sim, store = make_group()
        fill(store, 10)
        settle(sim, store)
        leader_dump = dict(store.leader.store.dump())
        for replica in store.replicas:
            if replica.role == "follower":
                assert dict(replica.store.dump()) == leader_dump
                assert replica.applied_revision == store.revision

    def test_follower_apply_converges_with_shared_values(self):
        """A follower stores the applied value as is (one dict for its
        store and its own WAL record); the group still converges to
        equal dumps, and a follower's values are as read-only as the
        leader's."""
        sim, store = make_group()
        fill(store, 5)
        store.update("/registry/pods/ns/p001", {"n": [1, {"deep": 2}]})
        store.delete("/registry/pods/ns/p004")
        settle(sim, store)
        follower = next(r for r in store.replicas if r.role == "follower")
        assert follower.store.dump() == store.leader.store.dump()
        value, _rev = follower.store.get("/registry/pods/ns/p001")
        with pytest.raises(FrozenError):
            value["n"][1]["deep"] = 3
        # The follower's own log rebuilds the same image.
        expected = follower.store.dump()
        follower.store.power_off()
        follower.store.recover_from_wal()
        assert follower.store.dump() == expected

    def test_replica_lag_is_tracked(self):
        sim, store = make_group()
        store.set_extra_lag(5.0)
        fill(store, 4)
        sim.run(until=sim.now + 0.5)
        lags = sorted(r.lag for r in store.replicas
                      if r.role == "follower")
        assert lags[-1] > 0  # the slowed follower trails
        for replica in store.replicas:
            replica.extra_lag = 0.0
        settle(sim, store, timeout=30.0)

    def test_facade_matches_plain_store_semantics(self):
        sim, store = make_group()
        store.create("/registry/pods/ns/a", {"x": 1})
        value, revision = store.get("/registry/pods/ns/a")
        assert value == {"x": 1}
        store.update("/registry/pods/ns/a", {"x": 2})
        items, _revision = store.list_prefix("/registry/pods/")
        assert [key for key, _value, _rev in items] == ["/registry/pods/ns/a"]
        store.delete("/registry/pods/ns/a")
        assert store.try_get("/registry/pods/ns/a") == (None, 0)


class TestFailover:
    def test_kill_leader_promotes_fenced_follower(self):
        sim, store = make_group()
        fill(store, 6)
        settle(sim, store)
        old_leader = store.leader.name
        victim = store.kill_leader()
        assert victim is not None
        with pytest.raises(StoreUnavailable):
            store.create("/registry/pods/ns/x", {})
        sim.run(until=sim.now + 15.0)
        assert store.leader is not None
        assert store.leader.name != old_leader
        record = store.recoveries[-1]
        assert record["lost_writes"] == 0
        assert record["mttr"] is not None
        # The new leader's fencing token is on the floor: the dead
        # leader's old token can never write again.
        assert store._fences[store.fence_domain] >= record["token"]

    def test_hold_releases_into_the_store_that_served_it(self):
        """A list's hold goes to the leader that answered it and comes
        back there after a failover; the group's stats count it."""
        sim, store = make_group()
        fill(store, 3)
        settle(sim, store)
        served = store.leader.store
        release = store.hold(store.revision)
        assert served.holds == 1 and store.stats()["holds"] == 1
        store.kill_leader()
        sim.run(until=sim.now + 15.0)
        assert store.leader.store is not served
        assert store.stats()["holds"] == 1
        release()
        assert served.holds == 0 and store.stats()["holds"] == 0

    def test_promoted_follower_never_replays_a_gap(self):
        """A follower keeps no history, so its compaction floor follows
        what it applied: a resume from before it led is refused."""
        sim, store = make_group()
        fill(store, 4)
        settle(sim, store)
        store.kill_leader()
        sim.run(until=sim.now + 15.0)
        from repro.storage import RevisionCompacted

        with pytest.raises(RevisionCompacted):
            store.watch("/registry/pods/", from_revision=1)
        assert store.watch("/registry/pods/",
                           from_revision=store.revision) is not None

    def test_writes_resume_after_failover(self):
        sim, store = make_group()
        fill(store, 3)
        settle(sim, store)
        store.kill_leader()
        sim.run(until=sim.now + 15.0)
        fill(store, 3, prefix="/registry/pods/ns/q")
        settle(sim, store)
        assert store.failovers >= 1

    def test_hinted_watch_survives_failover_rewatch(self):
        """The group forwards the watch hint to whichever replica leads;
        the dead leader's index empties and its fan-out work stays in
        the group's counters."""
        sim, store = make_group()
        hint = ("spec.nodeName", "n1")

        def kubelet_watch():
            return store.watch(
                "/registry/pods/", hint=hint,
                predicate=lambda e: e.value["spec"]["nodeName"] == "n1")

        first = kubelet_watch()
        old = store.leader.store
        store.create("/registry/pods/ns/a", {"spec": {"nodeName": "n1"}})
        store.create("/registry/pods/ns/b", {"spec": {"nodeName": "n2"}})
        assert len(first.channel) == 1
        settle(sim, store)
        store.kill_leader()
        assert first.cancelled
        assert not old._watches and not old._hinted_watches
        sim.run(until=sim.now + 15.0)
        second = kubelet_watch()                # the reflector's re-watch
        assert store.leader.store is not old
        assert list(store.leader.store._hinted_watches) == ["/registry/pods"]
        store.create("/registry/pods/ns/c", {"spec": {"nodeName": "n1"}})
        store.create("/registry/pods/ns/d", {"spec": {"nodeName": "n2"}})
        assert len(second.channel) == 1
        stats = store.stats()
        assert (stats["watch_evals"], stats["watch_deliveries"]) == (2, 2)
        second.cancel()
        assert not store.leader.store._hinted_watches

    def test_restart_replica_recovers_from_own_wal(self):
        sim, store = make_group()
        fill(store, 5)
        settle(sim, store)
        victim = store.kill_leader()
        sim.run(until=sim.now + 15.0)
        fill(store, 2, prefix="/registry/pods/ns/q")
        assert store.restart_replica(victim) == victim
        settle(sim, store, timeout=15.0)
        revived = store.replicas[victim]
        assert revived.role == "follower"
        assert dict(revived.store.dump()) == dict(store.leader.store.dump())

    def test_mid_txn_kill_commits_prefix_only(self):
        sim, store = make_group()
        fill(store, 2)
        settle(sim, store)

        def ops():
            return [
                lambda i=i: store.leader.store.create(
                    f"/registry/pods/ns/t{i}", {"i": i})
                for i in range(4)
            ]

        store.arm_kill(2)  # die after 2 of the 4 ops
        with pytest.raises(StoreUnavailable):
            store.txn(ops())
        # The two applied ops were WAL-durable before the crash; the
        # rest never happened anywhere.
        sim.run(until=sim.now + 15.0)  # failover
        record = store.recoveries[-1]
        assert record["reason"] == "mid-txn"
        assert record["lost_writes"] == 0
        data = dict(store.dump())
        assert "/registry/pods/ns/t0" in data
        assert "/registry/pods/ns/t1" in data
        assert "/registry/pods/ns/t2" not in data
        assert "/registry/pods/ns/t3" not in data

    def test_disarm_kill_defuses_latch(self):
        sim, store = make_group()
        fill(store, 1)
        store.arm_kill(0)
        store.disarm_kill()
        store.txn([lambda: store.leader.store.create(
            "/registry/pods/ns/ok", {})])
        assert store.leader is not None


class TestStaleReads:
    def test_lagging_follower_read_raises_stale(self):
        sim, store = make_group()
        store.set_extra_lag(30.0)
        fill(store, 5)
        sim.run(until=sim.now + 0.2)
        with pytest.raises(StaleRead) as err:
            store.read_follower("/registry/pods/ns/p000",
                                min_revision=store.revision)
        assert err.value.applied < store.revision
        assert store.stale_reads == 1

    def test_caught_up_follower_serves_with_applied_revision(self):
        sim, store = make_group()
        fill(store, 3)
        settle(sim, store)
        value, mod_revision, applied = store.read_follower(
            "/registry/pods/ns/p001", min_revision=store.revision)
        assert value == {"n": 1}
        assert applied == store.revision
        assert mod_revision <= applied


class TestRestoreAndCompaction:
    def test_events_since_below_compaction_raises(self):
        sim, store = make_group()
        fill(store, 8)
        store.compact(keep=2)
        from repro.storage import RevisionCompacted

        with pytest.raises(RevisionCompacted):
            store.events_since(1)

    def test_group_restore_rolls_followers_back(self):
        sim, store = make_group()
        fill(store, 3)
        settle(sim, store)
        snapshot = store.snapshot()
        fill(store, 3, prefix="/registry/pods/ns/q")
        settle(sim, store)
        store.restore(snapshot)
        settle(sim, store)
        expected = dict(store.leader.store.dump())
        assert len(expected) == 3
        for replica in store.replicas:
            if replica.alive and replica.role == "follower":
                assert dict(replica.store.dump()) == expected

    def test_dead_replica_with_compacted_wal_resyncs_from_leader(self):
        sim, store = make_group()
        fill(store, 4)
        settle(sim, store)
        # Kill a follower and destroy its log beyond repair.
        victim = next(r for r in store.replicas if r.role == "follower")
        store.kill_replica(victim.index)
        victim.store.wal.reset()
        fill(store, 3, prefix="/registry/pods/ns/q")
        store.restart_replica(victim.index)
        settle(sim, store)
        assert dict(victim.store.dump()) == dict(store.leader.store.dump())

    def test_recover_from_wal_raises_on_empty_group_log(self):
        sim, store = make_group(replicas=2)
        with pytest.raises(CompactedError):
            store.recover_from_wal()
