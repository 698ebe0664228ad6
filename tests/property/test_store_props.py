"""Property-based tests: the etcd store versus a model dictionary, and
watch-replay equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Simulation
from repro.storage import (
    EVENT_DELETE,
    EtcdStore,
    KeyAlreadyExists,
    KeyNotFound,
    RevisionCompacted,
)

keys = st.sampled_from([f"/registry/pods/ns/{c}" for c in "abcde"])
values = st.dictionaries(st.sampled_from(["x", "y"]),
                         st.integers(0, 9), max_size=2)
operations = st.lists(
    st.tuples(st.sampled_from(["create", "update", "delete"]), keys, values),
    min_size=1, max_size=40,
)


def apply_ops(store, ops, model=None):
    """Apply ops to the store; mirror effects into a plain dict model."""
    model = {} if model is None else model
    for op, key, value in ops:
        if op == "create":
            try:
                store.create(key, value)
                model[key] = value
            except KeyAlreadyExists:
                assert key in model
        elif op == "update":
            try:
                store.update(key, value)
                model[key] = value
            except KeyNotFound:
                assert key not in model
        else:
            try:
                store.delete(key)
                del model[key]
            except KeyNotFound:
                assert key not in model
    return model


@given(operations)
@settings(max_examples=200)
def test_store_matches_model(ops):
    store = EtcdStore(Simulation())
    model = apply_ops(store, ops)
    items, _revision = store.list_prefix("/registry/pods/")
    assert {key: value for key, value, _rev in items} == model


@given(operations)
@settings(max_examples=100)
def test_revisions_strictly_increase(ops):
    store = EtcdStore(Simulation())
    seen = []
    watch = store.watch("/registry/")
    apply_ops(store, ops)
    while len(watch.channel):
        event = watch.channel._items.pop(0)
        seen.append(event.revision)
    assert seen == sorted(set(seen))


@given(operations, st.integers(min_value=0, max_value=20))
@settings(max_examples=100)
def test_watch_replay_equals_live_watch(ops, split):
    """Watching from revision R replays exactly the events a live watcher
    registered at R would have seen."""
    split = min(split, len(ops))
    store = EtcdStore(Simulation())
    model = apply_ops(store, ops[:split])
    checkpoint = store.revision

    live = store.watch("/registry/pods/")
    apply_ops(store, ops[split:], model=model)

    replayed = store.watch("/registry/pods/", from_revision=checkpoint)
    live_events = [(e.type, e.key, e.revision)
                   for e in list(live.channel._items)]
    replay_events = [(e.type, e.key, e.revision)
                     for e in list(replayed.channel._items)]
    assert live_events == replay_events


@given(operations)
@settings(max_examples=100)
def test_final_state_reconstructible_from_watch(ops):
    """Applying the full event stream to an empty dict reproduces the
    final store contents (the invariant reflectors rely on)."""
    store = EtcdStore(Simulation())
    watch = store.watch("/registry/pods/")
    model = apply_ops(store, ops)

    rebuilt = {}
    for event in list(watch.channel._items):
        if event.type == EVENT_DELETE:
            rebuilt.pop(event.key, None)
        else:
            rebuilt[event.key] = event.value
    assert rebuilt == model


# ----------------------------------------------------------------------
# Watch fan-out: the index versus a linear scan
# ----------------------------------------------------------------------
#
# The store asks only the watches its index yields; the reference below
# is the loop it replaced — every live watch, in registration order,
# ``prefix`` test then predicate — and lives only here.

_ABSENT = "<absent>"
fanout_keys = st.sampled_from([
    "/registry/pods/ns1/a", "/registry/pods/ns1/b", "/registry/pods/ns2/a",
    "/registry/podsx/ns1/a",            # shares the bucket-less "…/pods"
    "/registry/nodes/n1", "/registry/nodes/n2",
])
node_names = st.sampled_from(["n1", "n2", None, _ABSENT, ["unhashable"]])
fanout_values = st.builds(
    lambda node, tier, spec: {
        "metadata": {"labels": {"tier": tier}},
        **({"spec": ({} if node == _ABSENT else {"nodeName": node})}
           if spec else {}),
    },
    node_names, st.sampled_from(["gold", "free"]), st.booleans())
watch_prefixes = st.sampled_from([
    "/", "/registry/", "/registry/pods",          # shorter than a bucket
    "/registry/pods/", "/registry/pods/ns1/", "/registry/nodes/",
])
watch_selectors = st.one_of(
    st.none(),
    st.fixed_dictionaries({"spec.nodeName":
                           st.sampled_from(["n1", "n2", None])}),
    st.just({"spec.nodeName!": "n1"}),
    st.just({"spec.nodeName": "n1", "metadata.labels.tier!": "free"}),
    st.just({"spec.nodeName": ["unhashable"]}),
)
write = st.tuples(st.sampled_from(["create", "update", "delete"]),
                  fanout_keys, fanout_values)
fanout_steps = st.lists(st.one_of(
    st.tuples(st.just("watch"), watch_prefixes, watch_selectors,
              st.sampled_from([None, "gold"])),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("write"), write),
    st.tuples(st.just("txn"), st.lists(write, min_size=1, max_size=4)),
), min_size=1, max_size=50)


class _Tap:
    """Stands in for a watch channel: logs deliveries store-wide."""

    def __init__(self, log, ident):
        self.log, self.ident, self.closed = log, ident, False

    def try_put(self, event):
        self.log.append((self.ident, event.revision))

    def close(self):
        self.closed = True


def _apply_write(store, op, key, value):
    try:
        getattr(store, op)(*((key,) if op == "delete" else (key, value)))
    except (KeyAlreadyExists, KeyNotFound):
        pass


@given(fanout_steps)
@settings(max_examples=300, deadline=None)
def test_indexed_fanout_equals_linear_scan(steps):
    from repro.objects.selectors import equality_hint, match_fields

    store = EtcdStore(Simulation())
    delivered = []
    registered = []     # [ident, prefix, predicate, first, last revision]
    for step in steps:
        if step[0] == "watch":
            _kind, prefix, selector, tier = step

            def predicate(event, selector=selector, tier=tier):
                labels = event.value.get("metadata", {}).get("labels", {})
                if tier is not None and labels.get("tier") != tier:
                    return False
                return match_fields(selector, event.value)

            if selector is None and tier is None:
                predicate = None
            ident = len(registered)
            watch = store.watch(
                prefix, predicate=predicate, hint=equality_hint(selector),
                channel_factory=lambda: _Tap(delivered, ident))
            registered.append([watch, prefix, predicate, store.revision,
                               float("inf")])
        elif step[0] == "cancel":
            if registered:
                entry = registered[step[1] % len(registered)]
                if not entry[0].cancelled:
                    entry[0].cancel()
                    entry[4] = store.revision
        elif step[0] == "write":
            _apply_write(store, *step[1])
        else:
            store.txn([lambda w=w: _apply_write(store, *w)
                       for w in step[1]])

    expected = []
    for event in store._history:
        for ident, (_watch, prefix, predicate, first, last) in \
                enumerate(registered):
            if (first < event.revision <= last
                    and event.key.startswith(prefix)
                    and (predicate is None or predicate(event))):
                expected.append((ident, event.revision))
    assert delivered == expected
    assert store.stats()["watch_deliveries"] == len(delivered)
    assert store.stats()["watch_evals"] >= len(delivered)

    for entry in registered:
        entry[0].cancel()
    assert not (store._wide_watches or store._watch_buckets
                or store._hinted_watches)


# ----------------------------------------------------------------------
# Held-revision history versus an unbounded reference
# ----------------------------------------------------------------------
#
# The reference is every event the store ever emitted, logged by a watch
# registered before the first write.  ``floor`` models the retention
# rule: at each write, events of earlier instants that no outstanding
# hold needs are gone.

retention_steps = st.lists(st.one_of(
    st.tuples(st.just("write"), st.lists(st.tuples(
        st.sampled_from(["create", "update", "delete"]), keys, values),
        min_size=1, max_size=3)),
    st.just(("tick",)),
    st.just(("hold",)),
    st.tuples(st.just("release"), st.integers(0, 10)),
    st.tuples(st.just("watch"), st.integers(0, 60)),
), min_size=10, max_size=60)


class _EventLog(list):
    """Stands in for a watch channel: keeps the events themselves."""

    closed = False

    def try_put(self, event):
        self.append(event)

    def close(self):
        self.closed = True


def _replay(store, revision):
    log = _EventLog()
    store.watch("/registry/", from_revision=revision,
                channel_factory=lambda: log).cancel()
    return list(log)


@given(retention_steps)
@settings(max_examples=300, deadline=None)
def test_held_history_never_replays_a_gap(steps):
    sim = Simulation()
    store = EtcdStore(sim)
    reference = _EventLog()
    store.watch("/registry/", channel_factory=lambda: reference)
    holds = []                  # [(revision, release)]
    floor = 0
    instant = None              # sim time of the latest write
    tick_revision = 0           # store revision when time last advanced
    for step in steps:
        if step[0] == "write":
            for write in step[1]:
                before = store.revision
                _apply_write(store, *write)
                if store.revision != before:
                    if sim.now != instant:
                        instant, instant_revision = sim.now, before
                    floor = max(floor, min([instant_revision]
                                           + [held for held, _ in holds]))
        elif step[0] == "tick":
            sim.run(until=sim.now + 1.0)
            tick_revision = store.revision
        elif step[0] == "hold":
            holds.append((store.revision, store.hold(store.revision)))
        elif step[0] == "release":
            if holds:
                _held, release = holds.pop(step[1] % len(holds))
                release()
        else:
            start = step[1] % (store.revision + 1)
            expected = reference[start:]    # revision r is reference[r-1]
            if (start >= tick_revision
                    or any(held <= start for held, _ in holds)):
                assert start >= floor   # held or current: always replayed
            if start >= floor:
                assert _replay(store, start) == expected
            else:
                with pytest.raises(RevisionCompacted):
                    _replay(store, start)
        assert store.stats()["compacted_revision"] == floor
        assert store._history == reference[floor:]
        assert store.stats()["holds"] == len(holds)
