"""StoreGroup unit tests: WAL streaming, fenced failover, and crash
recovery of the store group (DESIGN.md §13)."""

import ast
import inspect

import pytest

from repro.apiserver import ADMIN, ServerUnavailable
from repro.config import DEFAULT_CONFIG
from repro.core.controlplane import TenantControlPlane
from repro.objects import make_namespace, make_pod
from repro.objects.base import FrozenError
from repro.simkernel import Simulation
from repro.storage import (
    CompactedError,
    EtcdStore,
    StoreGroup,
    StoreUnavailable,
)
from repro.storage import replicated, wal
from repro.storage.etcd import ANCHOR_INTERVAL, FENCE


def run(sim, coroutine):
    return sim.run(until=sim.process(coroutine))


def make_group(seed=1, replicas=3):
    sim = Simulation(seed=seed)
    config = DEFAULT_CONFIG.with_overrides(storage={"replicas": replicas})
    return sim, StoreGroup(sim, "grp", config)


def fill(group, count, prefix="/registry/pods/ns/p"):
    for index in range(count):
        group.store.create(f"{prefix}{index:03d}", {"n": index})


def data(store):
    """A store's key -> (value, create, mod, version) image."""
    return store.snapshot()["data"]


def settle(sim, group, timeout=5.0):
    """Run until every live follower has applied the leader's log."""
    deadline = sim.now + timeout
    while sim.now < deadline:
        followers = [r for r in group.replicas
                     if r.alive and r.role == "follower"]
        if followers and all(r.lag == 0 for r in followers):
            return
        sim.run(until=sim.now + 0.05)
    raise AssertionError(
        f"followers never caught up: "
        f"{[(r.name, r.role, r.lag) for r in group.replicas]}")


class TestReplication:
    def test_writes_stream_to_all_followers(self):
        sim, group = make_group()
        fill(group, 10)
        settle(sim, group)
        leader_dump = data(group.leader.store)
        for replica in group.replicas:
            if replica.role == "follower":
                assert data(replica.store) == leader_dump
                assert replica.store.revision == group.store.revision

    def test_follower_apply_converges_with_shared_values(self):
        """A follower stores the applied value as is; the group still
        converges to equal images, and a follower's values are as
        read-only as the leader's."""
        sim, group = make_group()
        fill(group, 5)
        group.store.update("/registry/pods/ns/p001", {"n": [1, {"deep": 2}]})
        group.store.delete("/registry/pods/ns/p004")
        settle(sim, group)
        follower = next(r for r in group.replicas if r.role == "follower")
        assert data(follower.store) == data(group.leader.store)
        value, _rev = follower.store.get("/registry/pods/ns/p001")
        with pytest.raises(FrozenError):
            value["n"][1]["deep"] = 3
        # The follower's own log rebuilds the same image.
        expected = data(follower.store)
        follower.store.power_off()
        follower.store.recover_from_wal()
        assert data(follower.store) == expected

    def test_follower_log_shares_the_leaders_records(self):
        """A follower logs the very records its leader streamed, and a
        tear of its tail replaces its own entry: the leader's committed
        log stays whole."""
        sim, group = make_group()
        fill(group, 5)
        settle(sim, group)
        leader_log = group.leader.store.wal
        committed = leader_log.committed()
        follower = next(r for r in group.replicas if r.role == "follower")
        own = follower.store.wal.records
        assert len(own) == len(leader_log.records) > 5
        assert all(mine is theirs
                   for mine, theirs in zip(own, leader_log.records))
        torn = follower.store.wal.tear_tail()
        assert torn.torn and torn is not leader_log.records[-1]
        assert follower.store.wal.committed() == committed[:-1]
        assert leader_log.committed() == committed
        assert not any(record.torn for record in leader_log.records)
        assert leader_log.records[-1].decode()["revision"] == 5

    def test_replica_lag_is_tracked(self):
        sim, group = make_group()
        group.set_extra_lag(5.0)
        fill(group, 4)
        sim.run(until=sim.now + 0.5)
        lags = sorted(r.lag for r in group.replicas
                      if r.role == "follower")
        assert lags[-1] > 0  # the slowed follower trails
        for replica in group.replicas:
            replica.extra_lag = 0.0
        settle(sim, group, timeout=30.0)

    def test_serving_store_has_plain_store_semantics(self):
        sim, group = make_group()
        group.store.create("/registry/pods/ns/a", {"x": 1})
        value, revision = group.store.get("/registry/pods/ns/a")
        assert value == {"x": 1}
        group.store.update("/registry/pods/ns/a", {"x": 2})
        items, _revision = group.store.list_prefix("/registry/pods/")
        assert [key for key, _value, _rev in items] == ["/registry/pods/ns/a"]
        group.store.delete("/registry/pods/ns/a")
        assert group.store.try_get("/registry/pods/ns/a") == (None, 0)


class TestFailover:
    def test_kill_leader_promotes_fenced_follower(self):
        sim, group = make_group()
        fill(group, 6)
        settle(sim, group)
        old_leader = group.leader.name
        victim = group.kill_leader()
        assert victim is not None
        with pytest.raises(StoreUnavailable):
            group.store.create("/registry/pods/ns/x", {})
        sim.run(until=sim.now + 15.0)
        assert group.leader is not None
        assert group.leader.name != old_leader
        record = group.recoveries[-1]
        assert record["lost_writes"] == 0
        assert record["mttr"] is not None
        # The new leader's fencing token is on the floor: the dead
        # leader's old token can never write again.
        assert group.store._fences[group.fence_domain] >= record["token"]

    def test_hold_releases_into_the_store_that_served_it(self):
        """A list's hold goes to the leader that answered it and comes
        back there after a failover; the group's stats count it."""
        sim, group = make_group()
        fill(group, 3)
        settle(sim, group)
        served = group.leader.store
        release = group.store.hold(group.store.revision)
        assert served.holds == 1 and group.stats()["holds"] == 1
        group.kill_leader()
        sim.run(until=sim.now + 15.0)
        assert group.leader.store is not served
        assert group.stats()["holds"] == 1
        release()
        assert served.holds == 0 and group.stats()["holds"] == 0

    def test_promoted_follower_never_replays_a_gap(self):
        """A follower keeps no history, so its compaction floor follows
        what it applied: a resume from before it led is refused."""
        sim, group = make_group()
        fill(group, 4)
        settle(sim, group)
        group.kill_leader()
        sim.run(until=sim.now + 15.0)
        from repro.storage import RevisionCompacted

        with pytest.raises(RevisionCompacted):
            group.store.watch("/registry/pods/", from_revision=1)
        assert group.store.watch("/registry/pods/",
                                 from_revision=group.store.revision) \
            is not None

    def test_writes_resume_after_failover(self):
        sim, group = make_group()
        fill(group, 3)
        settle(sim, group)
        group.kill_leader()
        sim.run(until=sim.now + 15.0)
        fill(group, 3, prefix="/registry/pods/ns/q")
        settle(sim, group)
        assert group.failovers >= 1

    def test_hinted_watch_survives_failover_rewatch(self):
        """The group forwards the watch hint to whichever replica leads;
        the dead leader's index empties and its fan-out work stays in
        the group's counters."""
        sim, group = make_group()
        hint = ("spec.nodeName", "n1")

        def kubelet_watch():
            return group.store.watch(
                "/registry/pods/", hint=hint,
                predicate=lambda e: e.value["spec"]["nodeName"] == "n1")

        first = kubelet_watch()
        old = group.leader.store
        group.store.create("/registry/pods/ns/a", {"spec": {"nodeName": "n1"}})
        group.store.create("/registry/pods/ns/b", {"spec": {"nodeName": "n2"}})
        assert len(first.channel) == 1
        settle(sim, group)
        group.kill_leader()
        assert first.cancelled
        assert not old._watches and not old._hinted_watches
        sim.run(until=sim.now + 15.0)
        second = kubelet_watch()                # the reflector's re-watch
        assert group.leader.store is not old
        assert list(group.leader.store._hinted_watches) == ["/registry/pods"]
        group.store.create("/registry/pods/ns/c", {"spec": {"nodeName": "n1"}})
        group.store.create("/registry/pods/ns/d", {"spec": {"nodeName": "n2"}})
        assert len(second.channel) == 1
        stats = group.stats()
        assert (stats["watch_evals"], stats["watch_deliveries"]) == (2, 2)
        second.cancel()
        assert not group.leader.store._hinted_watches

    def test_restart_replica_recovers_from_own_wal(self):
        sim, group = make_group()
        fill(group, 5)
        settle(sim, group)
        victim = group.kill_leader()
        sim.run(until=sim.now + 15.0)
        fill(group, 2, prefix="/registry/pods/ns/q")
        assert group.restart_replica(victim) == victim
        settle(sim, group, timeout=15.0)
        revived = group.replicas[victim]
        assert revived.role == "follower"
        assert data(revived.store) == data(group.leader.store)

    def test_mid_txn_kill_commits_prefix_only(self):
        sim, group = make_group()
        fill(group, 2)
        settle(sim, group)

        def ops():
            return [
                lambda i=i: group.leader.store.create(
                    f"/registry/pods/ns/t{i}", {"i": i})
                for i in range(4)
            ]

        group.arm_kill(2)  # die after 2 of the 4 ops
        with pytest.raises(StoreUnavailable):
            group.store.txn(ops())
        # The two applied ops were WAL-durable before the crash; the
        # rest never happened anywhere.
        sim.run(until=sim.now + 15.0)  # failover
        record = group.recoveries[-1]
        assert record["reason"] == "mid-txn"
        assert record["lost_writes"] == 0
        image = data(group.store)
        assert "/registry/pods/ns/t0" in image
        assert "/registry/pods/ns/t1" in image
        assert "/registry/pods/ns/t2" not in image
        assert "/registry/pods/ns/t3" not in image

    def test_disarm_kill_defuses_latch(self):
        sim, group = make_group()
        fill(group, 1)
        group.arm_kill(0)
        group.disarm_kill()
        group.store.txn([lambda: group.leader.store.create(
            "/registry/pods/ns/ok", {})])
        assert group.leader is not None


class TestRestoreAndCompaction:
    def test_watch_below_compaction_raises(self):
        sim, group = make_group()
        fill(group, 8)
        group.store.compact(keep=2)
        from repro.storage import RevisionCompacted

        with pytest.raises(RevisionCompacted):
            group.store.watch("/registry/pods/", from_revision=1)

    def test_group_restore_rolls_followers_back(self):
        sim, group = make_group()
        fill(group, 3)
        settle(sim, group)
        snapshot = group.store.snapshot()
        fill(group, 3, prefix="/registry/pods/ns/q")
        settle(sim, group)
        group.store.restore(snapshot)
        settle(sim, group)
        expected = data(group.leader.store)
        assert len(expected) == 3
        for replica in group.replicas:
            if replica.alive and replica.role == "follower":
                assert data(replica.store) == expected

    def test_group_wipe_rolls_followers_back(self):
        """A wipe of the serving store reaches the followers through the
        leader's log, and the group keeps replicating afterwards."""
        sim, group = make_group()
        fill(group, 3)
        settle(sim, group)
        group.store.wipe()
        for replica in group.replicas:
            assert data(replica.store) == {}
            assert replica.store.revision == 0
        fill(group, 2, prefix="/registry/pods/ns/q")
        settle(sim, group)
        expected = data(group.leader.store)
        assert len(expected) == 2
        for replica in group.replicas:
            assert data(replica.store) == expected

    def test_dead_replica_with_compacted_wal_resyncs_from_leader(self):
        sim, group = make_group()
        fill(group, 4)
        settle(sim, group)
        # Kill a follower and destroy its log beyond repair.
        victim = next(r for r in group.replicas if r.role == "follower")
        group.kill_replica(victim.index)
        victim.store.wal.reset()
        fill(group, 3, prefix="/registry/pods/ns/q")
        group.restart_replica(victim.index)
        settle(sim, group)
        assert data(victim.store) == data(group.leader.store)

    def test_replica_dead_past_a_self_anchor_rejoins_through_it(self):
        """The leader's log anchors itself while a follower is down: the
        records the follower lacks are gone, so it rejoins through the
        anchor and lands on the leader's durable state."""
        sim, group = make_group()
        fill(group, 4)
        settle(sim, group)
        victim = next(r for r in group.replicas if r.role == "follower")
        group.kill_replica(victim.index)
        fill(group, ANCHOR_INTERVAL + 10, prefix="/registry/pods/ns/q")
        leader_log = group.leader.store.wal
        assert leader_log.anchor_revision > victim.store.wal.durable_revision
        assert leader_log.records[0].revision > 5
        group.restart_replica(victim.index)
        settle(sim, group)
        assert victim.store.wal.anchor_revision == leader_log.anchor_revision
        assert {key: (value, mod_revision) for key, (value, _create,
                mod_revision, _version) in data(victim.store).items()} \
            == leader_log.durable_state()
        assert victim.store.revision == group.leader.store.revision

    def test_replica_dead_through_a_restore_rejoins_the_new_history(self):
        """A follower down while the serving store is restored recovers
        its own pre-restore log, which runs ahead of the restored
        anchor: it must resync, not resume over a divergent history."""
        sim, group = make_group()
        fill(group, 3)
        snapshot = group.store.snapshot()
        fill(group, 3, prefix="/registry/pods/ns/q")
        settle(sim, group)
        victim = next(r for r in group.replicas if r.role == "follower")
        group.kill_replica(victim.index)
        group.store.restore(snapshot)
        fill(group, 2, prefix="/registry/pods/ns/r")
        group.restart_replica(victim.index)
        settle(sim, group)
        leader = group.leader.store
        assert sorted(data(leader)) == [
            f"/registry/pods/ns/{name}"
            for name in ("p000", "p001", "p002", "r000", "r001")]
        for replica in group.replicas:
            assert data(replica.store) == data(leader), replica.name
        assert {replica.store.wal.generation
                for replica in group.replicas} == {leader.wal.generation}
        # Its own log now records the leader's history: a second
        # restart recovers the same image.
        group.kill_replica(victim.index)
        group.restart_replica(victim.index)
        assert data(victim.store) == data(leader)

    def test_recover_from_wal_raises_on_empty_group_log(self):
        sim, group = make_group(replicas=2)
        with pytest.raises(CompactedError):
            group.store.recover_from_wal()


class TestOneServingStore:
    """The group is not a store: the apiserver holds the leader's plain
    EtcdStore, and every failover re-points that one reference."""

    # EtcdStore's data path: none of it may reappear on the group.
    DATA_PATH = ("create", "get", "get_stored", "try_get",
                 "try_get_stored", "update", "delete", "txn", "watch",
                 "list_prefix", "list_stored", "count_prefix", "hold",
                 "snapshot", "restore", "wipe", "compact", "check_fence",
                 "recover_from_wal", "revision")
    # What both classes define on purpose: chaos latches and stats.
    SHARED = {"__init__", "__module__", "__doc__", "__dict__",
              "__weakref__", "arm_kill", "disarm_kill", "stats"}

    def test_group_mirrors_no_store_method(self):
        group_names = set(vars(StoreGroup))
        for name in self.DATA_PATH:
            assert hasattr(EtcdStore, name), name
            assert not hasattr(StoreGroup, name), name
        assert "__getattr__" not in group_names
        assert "__len__" not in group_names
        assert group_names & set(vars(EtcdStore)) <= self.SHARED

    def test_group_and_log_touch_no_private_store_attribute(self):
        """Replication and the WAL change a store only through its public
        methods (apply/catch_up/restore/...): neither module reads or
        writes an EtcdStore internal."""
        store = EtcdStore(Simulation(seed=1), name="probe")
        private = {name for name in [*vars(EtcdStore), *vars(store)]
                   if name.startswith("_") and not name.startswith("__")}
        private |= {"_data", "_fences", "_compacted_revision",
                    "_apply_replayed"}
        for module in (replicated, wal):
            tree = ast.parse(inspect.getsource(module))
            touched = {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)}
            assert not touched & private, (module.__name__,
                                           touched & private)

    @staticmethod
    def _plane():
        sim = Simulation(seed=1)
        config = DEFAULT_CONFIG.with_overrides(
            storage={"replicas": 3}, apiserver={"list_per_item": 0.1})
        plane = TenantControlPlane(sim, "t", config)
        run(sim, plane.api.create(ADMIN, make_namespace("default")))
        for index in range(20):
            run(sim, plane.api.create(ADMIN, make_pod(f"p{index:02d}"),
                                      namespace="default"))
        settle(sim, plane.store_group)
        return sim, plane, plane.store_group

    @staticmethod
    def _get(sim, plane, name="p00"):
        return run(sim, plane.api.get(ADMIN, "pods", name,
                                      namespace="default"))

    def test_leader_kill_mid_get_is_unavailable_not_not_found(self):
        """A GET that passed the apiserver's availability check before
        the kill reads the dead store: it must see the retryable
        ServerUnavailable, never NotFound.  After the failover the
        apiserver serves from the promoted store, which carries the same
        unavailable factory."""
        sim, plane, group = self._plane()
        killed = []

        class KillLeaderOnGet:
            def on_request(self, verb, plural):
                if verb == "get" and not killed:
                    killed.append(group.kill_leader())
                return
                yield

        plane.api.fault_injector = KillLeaderOnGet()
        with pytest.raises(ServerUnavailable):
            self._get(sim, plane)
        assert killed == [0]
        sim.run(until=sim.now + 15.0)
        assert plane.api.store is group.store is group.leader.store
        assert group.leader.index != 0
        assert self._get(sim, plane).metadata.name == "p00"
        group.kill_leader()
        with pytest.raises(ServerUnavailable):
            plane.api.store.get_stored("/registry/pods/default/p00")

    def test_lease_lost_while_alive_refuses_until_promotion(self):
        sim, plane, group = self._plane()
        deposed = group.leader
        group._on_lost(deposed, "coordination partition")
        deposed.elector.crash()
        assert plane.api.store is deposed.store
        with pytest.raises(ServerUnavailable):
            self._get(sim, plane)
        with pytest.raises(ServerUnavailable):
            plane.api.store.get_stored("/registry/pods/default/p00")
        sim.run(until=sim.now + 15.0)
        assert group.leader is not None and group.leader is not deposed
        assert plane.api.store is group.leader.store
        assert self._get(sim, plane).metadata.name == "p00"
        assert deposed.role == "follower"

    def test_deposed_leader_rejoins_without_reapplying_its_log(self):
        """A leader deposed while alive rejoins the new leader's stream
        from its own store revision: it applies only what it lacks, so
        its versions match the leader's, its log gains no duplicate
        revision, and its own writes never count as applied records."""
        sim, group = make_group()
        fill(group, 5)
        group.store.update("/registry/pods/ns/p001", {"n": 11})
        settle(sim, group)
        deposed = group.leader
        own_records = len(deposed.store.wal.records)
        group._on_lost(deposed, "coordination partition")
        deposed.elector.crash()
        sim.run(until=sim.now + 15.0)
        assert group.leader is not None and group.leader is not deposed
        assert deposed.role == "follower"
        assert data(deposed.store) == data(group.leader.store)
        assert data(deposed.store)["/registry/pods/ns/p001"][3] == 2
        event_revisions = [record.revision
                           for record in deposed.store.wal.records
                           if record.type != FENCE]
        assert len(event_revisions) == len(set(event_revisions)) == 6
        assert len(deposed.store.wal.records) <= own_records + 1
        assert deposed.records_applied == 0
        group.store.create("/registry/pods/ns/late", {"n": 99})
        settle(sim, group)
        assert deposed.records_applied == 1
        assert data(deposed.store) == data(group.leader.store)

    def test_restart_of_killed_leader_does_not_serve_while_leaderless(self):
        sim, plane, group = self._plane()
        victim = group.kill_leader()
        group.restart_replica(victim)
        with pytest.raises(ServerUnavailable):
            plane.api.store.get_stored("/registry/pods/default/p00")
        sim.run(until=sim.now + 15.0)
        assert group.leader is not None
        assert self._get(sim, plane).metadata.name == "p00"

    def test_forced_compaction_after_failover_hits_the_serving_store(self):
        """ForcedCompaction built before a failover compacts the store
        the apiserver serves from when it fires, so a reflector whose
        LIST overlapped it must relist."""
        from repro.chaos import ForcedCompaction
        from repro.clientgo import Reflector

        sim, plane, group = self._plane()
        fault = ForcedCompaction(plane.api, keep=0)
        group.kill_leader()
        sim.run(until=sim.now + 15.0)
        serving = group.store
        assert plane.api.store is serving and serving is not \
            group.replicas[0].store

        class Recorder:
            def __init__(self):
                self.replaced = []

            def on_replace(self, objs):
                self.replaced.append([obj.name for obj in objs])

            def on_event(self, kind, obj):
                pass

        client = plane.client(user_agent="test", qps=10000, burst=10000)
        delegate = Recorder()
        class QuickReflector(Reflector):
            relist_backoff = 0.5
            backoff_jitter = 0.0

        reflector = QuickReflector(sim, client, "pods", delegate)
        reflector.start()
        sim.run(until=sim.now + 0.1)            # inside the 2 s LIST
        assert serving.holds == 1
        run(sim, plane.api.create(ADMIN, make_pod("late"),
                                  namespace="default"))
        fault.inject()
        assert serving.stats()["history"] == 0
        sim.run(until=sim.now + 2.0)
        assert reflector.watch_failures == 1    # the resume was compacted
        sim.run(until=sim.now + 5.0)
        assert reflector.list_count == 2
        assert "late" in delegate.replaced[-1]
        reflector.stop()
