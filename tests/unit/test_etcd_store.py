"""Unit tests for the etcd-like MVCC store."""

import pytest

from repro.objects.base import FrozenError
from repro.simkernel import Simulation
from repro.storage import (
    EVENT_DELETE,
    EVENT_PUT,
    EtcdStore,
    KeyAlreadyExists,
    KeyNotFound,
    RevisionCompacted,
    RevisionConflict,
)


@pytest.fixture
def store():
    return EtcdStore(Simulation(), name="test-etcd")


class TestCrud:
    def test_create_and_get(self, store):
        revision = store.create("/registry/pods/ns/a", {"x": 1})
        value, mod = store.get("/registry/pods/ns/a")
        assert value == {"x": 1}
        assert mod == revision == 1

    def test_create_duplicate_fails(self, store):
        store.create("/registry/pods/ns/a", {})
        with pytest.raises(KeyAlreadyExists):
            store.create("/registry/pods/ns/a", {})

    def test_get_missing_fails(self, store):
        with pytest.raises(KeyNotFound):
            store.get("/registry/pods/ns/nope")

    def test_try_get_missing(self, store):
        value, revision = store.try_get("/registry/pods/ns/nope")
        assert value is None
        assert revision == 0

    def test_update_bumps_global_revision(self, store):
        store.create("/registry/pods/ns/a", {"v": 1})
        store.create("/registry/pods/ns/b", {"v": 1})
        revision = store.update("/registry/pods/ns/a", {"v": 2})
        assert revision == 3
        _value, mod_b = store.get("/registry/pods/ns/b")
        assert mod_b == 2  # untouched keys keep their mod revision

    def test_update_missing_fails(self, store):
        with pytest.raises(KeyNotFound):
            store.update("/registry/pods/ns/a", {})

    def test_delete(self, store):
        store.create("/registry/pods/ns/a", {})
        store.delete("/registry/pods/ns/a")
        with pytest.raises(KeyNotFound):
            store.get("/registry/pods/ns/a")

    def test_values_are_isolated_copies(self, store):
        """The contract that replaced "copies in and out": the store
        owns what it is handed and nobody can change it afterwards —
        under the guard a read value raises on mutation at any depth,
        and the hand-off leaves the writer's own dict as it was."""
        original = {"nested": {"x": 1, "items": [{"y": 2}]}, "tags": ["a"]}
        store.create("/registry/pods/ns/a", original)
        assert type(original) is dict and type(original["tags"]) is list
        assert original == {"nested": {"x": 1, "items": [{"y": 2}]},
                            "tags": ["a"]}
        value, _mod = store.get("/registry/pods/ns/a")
        assert value == original
        for mutate in (
                lambda: value.update(z=1),
                lambda: value.__setitem__("nested", {}),
                lambda: value.pop("tags"),
                lambda: value["nested"].__setitem__("x", 42),
                lambda: value["nested"].__delitem__("x"),
                lambda: value["nested"]["items"].append({}),
                lambda: value["nested"]["items"][0].setdefault("w", 0),
                lambda: value["tags"].sort(),
                lambda: value["tags"].__iadd__(["b"])):
            with pytest.raises(FrozenError):
                mutate()
        assert store.get("/registry/pods/ns/a")[0] == original

    def test_one_dict_per_revision_everywhere(self, store):
        """get, list_prefix, the PUT event, the next event's prev_value,
        events_since, snapshot() and dump() all hand out the same dict."""
        key = "/registry/pods/ns/a"
        watch = store.watch("/registry/pods/")
        store.create(key, {"v": 1})
        value, _mod = store.get(key)
        assert store.get(key)[0] is value
        assert store.try_get(key)[0] is value
        items, _rev = store.list_prefix("/registry/pods/")
        assert items[0][1] is value
        put = watch.channel.get().value
        assert put.value is value and put.stored is store.get_stored(key)
        assert store.snapshot()["data"][key][0] is value
        assert store.dump()[key][0] is value
        store.update(key, {"v": 2})
        update = watch.channel.get().value
        assert update.prev_value is value
        assert update.value is store.get(key)[0] is not value
        assert [e.value for e in store.events_since(0)] == [{"v": 1},
                                                            {"v": 2}]
        assert store.events_since(0)[0].value is value
        store.delete(key)
        deleted = watch.channel.get().value
        assert deleted.value is update.value
        # A DELETE decodes at the delete revision: its own memo record.
        assert deleted.stored is not update.stored
        assert deleted.stored.mod_revision == deleted.revision

    def test_create_accepts_one_wire_for_many_keys(self, store):
        wire = {"v": 1}
        for index in range(3):
            store.create(f"/registry/pods/ns/p{index}", wire)
        assert wire == {"v": 1}
        values = [value for _key, value, _rev
                  in store.list_prefix("/registry/pods/")[0]]
        assert values == [wire] * 3


class TestCas:
    def test_cas_update_success(self, store):
        revision = store.create("/registry/pods/ns/a", {"v": 1})
        store.update("/registry/pods/ns/a", {"v": 2},
                     expected_revision=revision)

    def test_cas_update_conflict(self, store):
        revision = store.create("/registry/pods/ns/a", {"v": 1})
        store.update("/registry/pods/ns/a", {"v": 2})
        with pytest.raises(RevisionConflict):
            store.update("/registry/pods/ns/a", {"v": 3},
                         expected_revision=revision)

    def test_cas_delete_conflict(self, store):
        revision = store.create("/registry/pods/ns/a", {"v": 1})
        store.update("/registry/pods/ns/a", {"v": 2})
        with pytest.raises(RevisionConflict):
            store.delete("/registry/pods/ns/a", expected_revision=revision)


class TestListPrefix:
    def test_list_prefix_scopes_by_namespace(self, store):
        store.create("/registry/pods/ns1/a", {"n": 1})
        store.create("/registry/pods/ns1/b", {"n": 2})
        store.create("/registry/pods/ns2/c", {"n": 3})
        items, revision = store.list_prefix("/registry/pods/ns1/")
        assert [key for key, _v, _r in items] == [
            "/registry/pods/ns1/a", "/registry/pods/ns1/b"]
        assert revision == 3

    def test_list_prefix_all_of_resource(self, store):
        store.create("/registry/pods/ns1/a", {})
        store.create("/registry/services/ns1/a", {})
        items, _revision = store.list_prefix("/registry/pods/")
        assert len(items) == 1

    def test_count_prefix(self, store):
        for i in range(5):
            store.create(f"/registry/pods/ns/{i}", {})
        assert store.count_prefix("/registry/pods/") == 5
        assert store.count_prefix("/registry/services/") == 0

    def test_count_prefix_tracks_mutations(self, store):
        """The sort-free bisect count stays consistent with list_prefix
        through interleaved creates, updates, and deletes."""
        keys = [f"/registry/pods/ns{i % 3}/p{i:02d}" for i in range(12)]
        for index, key in enumerate(keys):
            store.create(key, {"i": index})
            if index % 3 == 2:
                store.delete(keys[index - 1])
            if index % 4 == 3:
                store.update(key, {"i": index, "u": True})
            for prefix in ("/registry/pods/", "/registry/pods/ns0/",
                           "/registry/pods/ns1/", "/registry/pods/ns2/"):
                items, _revision = store.list_prefix(prefix)
                assert store.count_prefix(prefix) == len(items)

    def test_count_prefix_respects_prefix_boundaries(self, store):
        store.create("/registry/pods/ns1/a", {})
        store.create("/registry/pods/ns10/a", {})
        store.create("/registry/pods/ns2/a", {})
        assert store.count_prefix("/registry/pods/ns1/") == 1
        assert store.count_prefix("/registry/pods/ns1") == 2
        assert store.count_prefix("/registry/pods/") == 3

    def test_list_sorted(self, store):
        store.create("/registry/pods/ns/b", {})
        store.create("/registry/pods/ns/a", {})
        items, _revision = store.list_prefix("/registry/pods/")
        keys = [key for key, _v, _r in items]
        assert keys == sorted(keys)


class TestWatch:
    def test_watch_receives_live_events(self, store):
        watch = store.watch("/registry/pods/")
        store.create("/registry/pods/ns/a", {"v": 1})
        store.update("/registry/pods/ns/a", {"v": 2})
        store.delete("/registry/pods/ns/a")
        events = [watch.channel._items[i] for i in range(3)]
        assert [e.type for e in events] == [EVENT_PUT, EVENT_PUT,
                                            EVENT_DELETE]
        assert events[0].prev_value is None       # create
        assert events[1].prev_value == {"v": 1}   # update

    def test_watch_prefix_filtering(self, store):
        watch = store.watch("/registry/pods/ns1/")
        store.create("/registry/pods/ns1/a", {})
        store.create("/registry/pods/ns2/b", {})
        assert len(watch.channel) == 1

    def test_watch_predicate_filtering(self, store):
        watch = store.watch(
            "/registry/pods/",
            predicate=lambda e: e.value.get("node") == "n1")
        store.create("/registry/pods/ns/a", {"node": "n1"})
        store.create("/registry/pods/ns/b", {"node": "n2"})
        assert len(watch.channel) == 1

    def test_watch_replay_from_revision(self, store):
        store.create("/registry/pods/ns/a", {"v": 1})
        revision = store.revision
        store.create("/registry/pods/ns/b", {"v": 2})
        watch = store.watch("/registry/pods/", from_revision=revision)
        assert len(watch.channel) == 1  # only b replayed

    def test_watch_replay_compacted_fails(self, store):
        for i in range(10):
            store.create(f"/registry/pods/ns/p{i}", {})
        store.compact(keep=2)
        with pytest.raises(RevisionCompacted):
            store.watch("/registry/pods/", from_revision=1)

    def test_cancelled_watch_gets_nothing(self, store):
        watch = store.watch("/registry/pods/")
        watch.cancel()
        store.create("/registry/pods/ns/a", {})
        assert watch.channel.closed

    def test_stats(self, store):
        store.create("/registry/pods/ns/a", {})
        stats = store.stats()
        assert stats["keys"] == 1
        assert stats["revision"] == 1


def _replayed(store, revision, prefix="/registry/pods/"):
    watch = store.watch(prefix, from_revision=revision)
    return [event.revision for event in watch.channel._items]


class TestHistoryTail:
    """Replay and the WAL tail start at a bisect into history; the
    boundaries are where an off-by-one would hide."""

    def _fill(self, store, count=6):
        for index in range(count):
            store.create(f"/registry/pods/ns/p{index}", {"i": index})

    def test_replay_from_first_and_last_held_revision(self, store):
        self._fill(store)                       # revisions 1..6
        assert _replayed(store, 0) == [1, 2, 3, 4, 5, 6]
        assert _replayed(store, 1) == [2, 3, 4, 5, 6]
        assert _replayed(store, 5) == [6]
        assert _replayed(store, 6) == []        # nothing newer: empty tail
        assert _replayed(store, 99) == []       # a future revision

    def test_replay_just_after_compaction(self, store):
        self._fill(store)
        store.compact(keep=2)                   # holds 5, 6; floor is 4
        assert store.stats()["compacted_revision"] == 4
        assert _replayed(store, 4) == [5, 6]
        assert _replayed(store, 5) == [6]
        with pytest.raises(RevisionCompacted):
            _replayed(store, 3)

    def test_replay_still_applies_prefix_and_predicate(self, store):
        self._fill(store, count=3)
        store.create("/registry/nodes/n1", {})
        store.create("/registry/pods/ns/last", {"i": 1})
        watch = store.watch("/registry/pods/", from_revision=1,
                            predicate=lambda e: e.value["i"] == 1)
        assert [e.revision for e in watch.channel._items] == [2, 5]

    def test_events_since_boundaries(self, store):
        self._fill(store)
        assert [e.revision for e in store.events_since(0)] == \
            [1, 2, 3, 4, 5, 6]
        assert [e.revision for e in store.events_since(5)] == [6]
        assert store.events_since(6) == []
        store.compact(keep=2)
        assert [e.revision for e in store.events_since(4)] == [5, 6]
        with pytest.raises(RevisionCompacted):
            store.events_since(3)

    def test_tail_after_restore_starts_past_the_snapshot(self, store):
        self._fill(store, count=3)
        snapshot = store.snapshot()
        store.restore(snapshot)                 # history restarts empty
        store.create("/registry/pods/ns/new", {})
        assert _replayed(store, 3) == [4]


class TestWatchIndex:
    """The fan-out index: who is asked, in what order, and that it holds
    nothing once its watches are gone."""

    HINT = ("spec.nodeName", "n1")

    def _watch_all_kinds(self, store):
        return [
            store.watch("/registry/"),                      # wide
            store.watch("/registry/pods/"),                 # bucket, plain
            store.watch("/registry/pods/ns/",
                        predicate=lambda e: True, hint=self.HINT),
            store.watch("/registry/nodes/"),
        ]

    def _index_is_empty(self, store):
        return not (store._watches or store._wide_watches
                    or store._watch_buckets or store._hinted_watches)

    def test_only_candidates_are_asked(self, store):
        for index in range(10):
            store.watch("/registry/pods/", hint=("spec.nodeName", f"n{index}"),
                        predicate=lambda e, n=f"n{index}":
                            e.value["spec"]["nodeName"] == n)
        informer = store.watch("/registry/pods/")
        store.watch("/registry/nodes/")
        store.create("/registry/pods/ns/a", {"spec": {"nodeName": "n3"}})
        stats = store.stats()
        assert (stats["watch_evals"], stats["watch_deliveries"]) == (2, 2)
        assert len(informer.channel) == 1

    def test_hint_never_decides_delivery(self, store):
        """A hinted watch whose predicate says no is asked, not told."""
        watch = store.watch("/registry/pods/", hint=self.HINT,
                            predicate=lambda e: False)
        store.create("/registry/pods/ns/a", {"spec": {"nodeName": "n1"}})
        assert store.stats()["watch_evals"] == 1
        assert len(watch.channel) == 0

    def test_opaque_predicate_without_hint_is_always_asked(self, store):
        watch = store.watch("/registry/pods/",
                            predicate=lambda e: e.value.get("node") == "n1")
        store.create("/registry/pods/ns/a", {"node": "n1"})
        store.create("/registry/pods/ns/b", {"node": "n2"})
        assert store.stats()["watch_evals"] == 2
        assert len(watch.channel) == 1

    def test_mixed_groups_deliver_in_registration_order(self, store):
        order = []

        class Tap:
            closed = False

            def __init__(self, name):
                self.name = name

            def try_put(self, event):
                order.append(self.name)

            def close(self):
                pass

        for name, prefix, hint in [
                ("hinted-1", "/registry/pods/", self.HINT),
                ("wide", "/registry/", None),
                ("plain", "/registry/pods/", None),
                ("hinted-2", "/registry/pods/ns/", self.HINT),
                ("wide-2", "/", None)]:
            store.watch(prefix, hint=hint,
                        channel_factory=lambda name=name: Tap(name))
        store.create("/registry/pods/ns/a", {"spec": {"nodeName": "n1"}})
        assert order == ["hinted-1", "wide", "plain", "hinted-2", "wide-2"]

    def test_empty_after_cancel(self, store):
        watches = self._watch_all_kinds(store)
        assert sorted(store._watch_buckets) == ["/registry/nodes",
                                                "/registry/pods"]
        assert list(store._hinted_watches) == ["/registry/pods"]
        for watch in watches:
            watch.cancel()
            watch.cancel()                      # idempotent
        assert self._index_is_empty(store)

    @pytest.mark.parametrize("sever", ["restore", "wipe", "power_off"])
    def test_empty_after_store_discontinuity(self, store, sever):
        store.create("/registry/pods/ns/a", {})
        snapshot = store.snapshot()
        watches = self._watch_all_kinds(store)
        if sever == "restore":
            store.restore(snapshot)
        else:
            getattr(store, sever)()
        assert all(watch.cancelled for watch in watches)
        assert self._index_is_empty(store)
