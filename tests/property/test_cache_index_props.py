"""Property-based tests for ObjectCache secondary indexes.

DESIGN.md §9 replaces the syncer's linear cache scans with index
lookups; the safety argument is that *every* index query is equivalent
to the brute-force ``select()`` it replaced, under any interleaving of
``upsert``/``delete``/``replace``.  Hypothesis drives the cache through
random operation sequences and checks that equivalence after every
step, plus the bookkeeping invariants (postings never go stale, the
access counters attribute reads to the right path).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clientgo import INDEX_LABELS, INDEX_NAMESPACE, ObjectCache
from repro.objects import make_pod

NAMESPACES = ["ns-a", "ns-b", "ns-c"]
NAMES = [f"pod-{i}" for i in range(6)]
LABEL_KEYS = ["app", "tier"]
LABEL_VALUES = ["web", "db", "cache"]

labels_st = st.dictionaries(st.sampled_from(LABEL_KEYS),
                            st.sampled_from(LABEL_VALUES), max_size=2)
pod_st = st.builds(
    lambda ns, name, labels: _pod(ns, name, labels),
    st.sampled_from(NAMESPACES), st.sampled_from(NAMES), labels_st)

operation_st = st.one_of(
    st.tuples(st.just("upsert"), pod_st),
    st.tuples(st.just("delete"),
              st.sampled_from([f"{ns}/{name}" for ns in NAMESPACES
                               for name in NAMES])),
    st.tuples(st.just("replace"), st.lists(pod_st, max_size=8)),
)


def _pod(namespace, name, labels):
    pod = make_pod(name, namespace=namespace)
    pod.metadata.labels = dict(labels)
    return pod


def _apply(cache, operations):
    for op, arg in operations:
        if op == "upsert":
            cache.upsert(arg)
        elif op == "delete":
            cache.delete(arg)
        else:
            # replace() keeps the *last* object per key, like a relist.
            deduped = {obj.key: obj for obj in arg}
            cache.replace(list(deduped.values()))


def _brute_namespace(cache, namespace):
    return [obj for obj in cache._items.values()
            if obj.metadata.namespace == namespace]


def _brute_label(cache, key, value):
    return [obj for obj in cache._items.values()
            if (obj.metadata.labels or {}).get(key) == value]


def _keys(objs):
    return sorted(obj.key for obj in objs)


def _query_every_index(cache):
    """Build every registered index: postings exist only once queried."""
    for name in cache._index_funcs:
        cache.index_keys(name, None)


@given(st.lists(operation_st, max_size=40))
@settings(max_examples=200)
def test_namespace_index_matches_brute_force(operations):
    cache = ObjectCache()
    _apply(cache, operations)
    for namespace in NAMESPACES:
        assert _keys(cache.by_namespace(namespace)) == _keys(
            _brute_namespace(cache, namespace))


@given(st.lists(operation_st, max_size=40))
@settings(max_examples=200)
def test_label_index_matches_brute_force(operations):
    cache = ObjectCache()
    _apply(cache, operations)
    for key in LABEL_KEYS:
        for value in LABEL_VALUES:
            assert _keys(cache.by_label(key, value)) == _keys(
                _brute_label(cache, key, value))


@given(st.lists(operation_st, max_size=40), labels_st,
       st.one_of(st.none(), st.sampled_from(NAMESPACES)))
@settings(max_examples=200)
def test_select_labels_matches_brute_force(operations, selector, namespace):
    cache = ObjectCache()
    _apply(cache, operations)
    expected = [
        obj for obj in cache._items.values()
        if selector
        and all((obj.metadata.labels or {}).get(k) == v
                for k, v in selector.items())
        and (namespace is None or obj.metadata.namespace == namespace)
    ]
    got = cache.select_labels(selector, namespace=namespace)
    assert _keys(got) == _keys(expected)


@given(st.lists(operation_st, max_size=40))
@settings(max_examples=200)
def test_custom_index_matches_brute_force(operations):
    """A caller-registered index (the syncer's tenant index shape) stays
    consistent whether registered and built before the mutations or
    registered after them."""
    def by_name_prefix(obj):
        return (obj.metadata.name.rsplit("-", 1)[0],)

    before = ObjectCache()
    before.add_index("prefix", by_name_prefix)
    before.index_keys("prefix", "pod")      # built now, then maintained
    after = ObjectCache()
    _apply(before, operations)
    _apply(after, operations)
    after.add_index("prefix", by_name_prefix)  # backfill path
    for value in ["pod", "other"]:
        brute = [obj for obj in before._items.values()
                 if by_name_prefix(obj)[0] == value]
        assert _keys(before.by_index("prefix", value)) == _keys(brute)
        assert (before.index_keys("prefix", value)
                == after.index_keys("prefix", value))


@given(st.lists(operation_st, max_size=40), st.integers(0, 40))
@settings(max_examples=100)
def test_postings_never_go_stale(operations, split):
    """Every posted key exists and still yields the posted value; every
    live object is findable through each of its index values — for
    indexes built (on their first query) part-way through the run, and
    maintained by the operations after it."""
    cache = ObjectCache()
    _apply(cache, operations[:split])
    _query_every_index(cache)
    _apply(cache, operations[split:])
    assert set(cache._postings) == set(cache._index_funcs)
    for name, postings in cache._postings.items():
        func = cache._index_funcs[name]
        for value, keys in postings.items():
            for key in keys:
                assert key in cache._items
                assert value in tuple(func(cache._items[key]))
    for key, obj in cache._items.items():
        for name, func in cache._index_funcs.items():
            for value in tuple(func(obj)):
                assert key in cache._postings[name].get(value, ())


@given(st.lists(operation_st, min_size=1, max_size=20))
@settings(max_examples=50)
def test_access_counters_attribute_reads(operations):
    """Index queries never bump full_scans; select()/items() never bump
    index_lookups — the counters tests use to pin hot paths are honest."""
    cache = ObjectCache()
    _apply(cache, operations)
    cache.by_namespace("ns-a")
    cache.by_label("app", "web")
    cache.select_labels({"app": "web"})
    assert cache.full_scans == 0
    assert cache.index_lookups == 3
    cache.items()
    cache.select(lambda obj: True)
    assert cache.full_scans == 2
    assert cache.index_lookups == 3


def _restatus(pod, phase):
    """The same object with only its status changed (a status write)."""
    return pod.replace(status=pod.status.replace(phase=phase))


restatus_st = st.tuples(st.just("restatus"), st.sampled_from(NAMES),
                        st.sampled_from(NAMESPACES),
                        st.sampled_from(["Running", "Succeeded"]))


@given(st.lists(st.one_of(operation_st, restatus_st), max_size=40))
@settings(max_examples=200)
def test_upserts_leave_the_indexes_a_fresh_cache_builds(operations):
    """An upsert re-indexes only what changed: after any upsert, delete,
    replace and status-only sequence, every ``index_keys`` and
    ``select_labels`` answer equals that of a cache built from scratch
    out of the same objects.  The first cache's indexes are built before
    the operations and maintained by them; the fresh cache's are built
    by the backfill of their first query."""
    cache = ObjectCache()
    cache.add_index("phase", lambda obj: (obj.status.phase,))
    _query_every_index(cache)
    for operation in operations:
        if operation[0] == "restatus":
            _op, name, namespace, phase = operation
            current = cache.get(f"{namespace}/{name}")
            if current is not None:
                cache.upsert(_restatus(current, phase))
        else:
            _apply(cache, [operation])
    fresh = ObjectCache()
    fresh.add_index("phase", lambda obj: (obj.status.phase,))
    fresh.replace(cache.items())
    _query_every_index(fresh)
    assert set(fresh._postings) == {INDEX_NAMESPACE, INDEX_LABELS, "phase"}
    assert cache._indexed_values == fresh._indexed_values
    assert cache._postings == fresh._postings
    for name, postings in fresh._postings.items():
        for value in postings:
            assert cache.index_keys(name, value) == fresh.index_keys(
                name, value)
    for key in LABEL_KEYS:
        for value in LABEL_VALUES:
            selector = {key: value}
            assert _keys(cache.select_labels(selector)) == _keys(
                fresh.select_labels(selector))


@given(st.lists(operation_st, max_size=40))
@settings(max_examples=50)
def test_unqueried_index_holds_no_postings(operations):
    """An index is built on its first query, and only that index: the
    others a cache registers cost no postings and no per-key values."""
    cache = ObjectCache()
    cache.add_index("prefix", lambda obj: (obj.metadata.name[:4],))
    _apply(cache, operations)
    assert cache._postings == {}
    assert cache._indexed_values == {}
    for namespace in NAMESPACES:
        assert _keys(cache.by_namespace(namespace)) == _keys(
            _brute_namespace(cache, namespace))
    assert set(cache._postings) == {INDEX_NAMESPACE}
    assert all(set(by_name) == {INDEX_NAMESPACE}
               for by_name in cache._indexed_values.values())
