"""The read-only object cache (client-go "Indexer"/thread-safe store).

Reconcilers read object state from here instead of querying the apiserver
(paper Fig. 3 / Fig. 5); the caches also dominate the syncer's memory
footprint, so the cache tracks an estimated byte size per object and
adds every change into its informer factory's running total
(:class:`ByteTotal`) — a memory meter reads one integer, not every cache.

Entries are the apiserver's shared snapshots — the same object sits in
every informer cache watching that apiserver — so everything a cache
hands out is read-only.  A reconciler that wants to write derives its
own object first: ``obj.replace(field=...)`` for a changed field,
``obj.copy()`` for a fully private object (DESIGN.md "Object plane").

Beyond the plain keyed store, the cache maintains **secondary indexes**
(client-go's ``Indexer``): an index is a named function mapping an object
to a list of hashable values.  Its value -> key postings are built on the
index's first query and kept up to date on every ``upsert``/``delete``/
``replace`` from then on, so an index nobody queries costs nothing.  Two
indexes are registered in every cache — ``namespace`` and ``labels``
(one ``"key=value"`` posting per label pair) — and callers can register
more (the syncer adds a tenant index over its annotation, see
``core/syncer``).  Index lookups replace
the linear ``items()`` scans on the syncer hot path; the
``gets``/``index_lookups``/``full_scans`` counters let tests pin the
access pattern of a code path (no accidental O(n) regressions).
"""

from repro.objects.meta import wire_chars

INDEX_NAMESPACE = "namespace"
INDEX_LABELS = "labels"


def estimate_object_bytes(obj, factor, overhead):
    """Rough in-memory size of a cached API object.

    Proportional to the serialized size — like real informer caches, where
    a Pod with managed fields occupies tens of kilobytes.  The size is
    counted without encoding, and children an earlier revision shares
    are not counted again (:func:`~repro.objects.meta.wire_chars`).
    """
    return int(wire_chars(obj) * factor) + overhead


def _namespace_index(obj):
    namespace = obj.metadata.namespace
    return (namespace,) if namespace else ()


def _labels_index(obj):
    labels = obj.metadata.labels or {}
    return tuple(f"{key}={value}" for key, value in labels.items())


class ByteTotal:
    """A running byte count that several caches add into (one per
    informer factory), so reading a factory's footprint is O(1)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class ObjectCache:
    """Keyed store of the latest observed object versions, with indexes."""

    def __init__(self, size_factor=0.0, size_overhead=0, byte_total=None):
        self._items = {}
        self._sizes = {}
        self._size_factor = size_factor
        self._size_overhead = size_overhead
        self.total_bytes = 0
        self._byte_total = byte_total
        # name -> index function (obj -> iterable of hashable values)
        self._index_funcs = {}
        # name -> {value -> set(key)}, for the indexes queried so far
        self._postings = {}
        # key -> {name -> tuple(values)}  (so deletes need no recompute)
        self._indexed_values = {}
        # Access-pattern instrumentation (see module docstring).
        self.gets = 0
        self.index_lookups = 0
        self.full_scans = 0
        self.add_index(INDEX_NAMESPACE, _namespace_index)
        self.add_index(INDEX_LABELS, _labels_index)

    def _add_bytes(self, delta):
        self.total_bytes += delta
        if self._byte_total is not None:
            self._byte_total.value += delta

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------

    def add_index(self, name, func):
        """Register a secondary index (idempotent).  Its postings are
        built when it is first queried."""
        self._index_funcs.setdefault(name, func)

    def _built(self, name):
        """The postings of index ``name``, backfilled from every cached
        object on its first query and maintained from then on."""
        postings = self._postings.get(name)
        if postings is None:
            func = self._index_funcs[name]
            postings = self._postings[name] = {}
            for key, obj in self._items.items():
                self._index_one(name, func, key, obj)
        return postings

    def _index_one(self, name, func, key, obj):
        values = tuple(func(obj))
        if values:
            postings = self._postings[name]
            for value in values:
                postings.setdefault(value, set()).add(key)
            self._indexed_values.setdefault(key, {})[name] = values

    def _index_move(self, key, obj):
        """(Re-)index ``key`` in the built indexes, touching only those
        whose value tuple changed (a status write or heartbeat changes
        none; an absent key has no old values, so every non-empty index
        is inserted)."""
        by_name = self._indexed_values.get(key)
        for name, postings in self._postings.items():
            old_values = by_name.get(name, ()) if by_name else ()
            values = tuple(self._index_funcs[name](obj))
            if values == old_values:
                continue
            for value in old_values:
                bucket = postings[value]
                bucket.discard(key)
                if not bucket:
                    del postings[value]
            for value in values:
                postings.setdefault(value, set()).add(key)
            if values:
                if by_name is None:
                    by_name = self._indexed_values[key] = {}
                by_name[name] = values
            else:
                del by_name[name]
                if not by_name:
                    del self._indexed_values[key]
                    by_name = None

    def _index_drop(self, key):
        by_name = self._indexed_values.pop(key, None)
        if not by_name:
            return
        for name, values in by_name.items():
            postings = self._postings[name]
            for value in values:
                bucket = postings.get(value)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del postings[value]

    # ------------------------------------------------------------------
    # Store operations
    # ------------------------------------------------------------------

    def upsert(self, obj):
        key = obj.key
        if self._size_factor:
            new_size = estimate_object_bytes(obj, self._size_factor,
                                             self._size_overhead)
            self._add_bytes(new_size - self._sizes.get(key, 0))
            self._sizes[key] = new_size
        self._items[key] = obj
        self._index_move(key, obj)

    def delete(self, key):
        if key in self._items:
            del self._items[key]
            self._add_bytes(-self._sizes.pop(key, 0))
            self._index_drop(key)

    def get(self, key):
        self.gets += 1
        return self._items.get(key)

    def keys(self):
        return list(self._items)

    def items(self):
        self.full_scans += 1
        return list(self._items.values())

    def replace(self, objs):
        """Atomically replace contents (reflector relist)."""
        self._items.clear()
        self._sizes.clear()
        self._add_bytes(-self.total_bytes)
        self._indexed_values.clear()
        for postings in self._postings.values():
            postings.clear()
        for obj in objs:
            self.upsert(obj)

    # ------------------------------------------------------------------
    # Index queries
    # ------------------------------------------------------------------

    def index_keys(self, name, value):
        """Keys indexed under ``value`` (sorted, for determinism)."""
        self.index_lookups += 1
        return sorted(self._built(name).get(value, ()))

    def by_index(self, name, value):
        """Objects indexed under ``value`` (key-sorted, no copies)."""
        return [self._items[key] for key in self.index_keys(name, value)]

    def by_namespace(self, namespace):
        return self.by_index(INDEX_NAMESPACE, namespace)

    def by_label(self, key, value):
        """Objects carrying the exact label pair ``key=value``."""
        return self.by_index(INDEX_LABELS, f"{key}={value}")

    def select_labels(self, selector_labels, namespace=None):
        """Objects matching every pair of a dict selector.

        Seeds the candidate set from the rarest label-pair posting, then
        confirms the full selector (and namespace) — the standard inverted
        index intersection, instead of a namespace- or cache-wide scan.
        """
        if not selector_labels:
            return []
        self.index_lookups += 1
        postings = self._built(INDEX_LABELS)
        candidate_keys = None
        for pair_key, pair_value in selector_labels.items():
            bucket = postings.get(f"{pair_key}={pair_value}")
            if not bucket:
                return []
            if candidate_keys is None or len(bucket) < len(candidate_keys):
                candidate_keys = bucket
        matched = []
        for key in sorted(candidate_keys):
            obj = self._items[key]
            if namespace is not None and obj.metadata.namespace != namespace:
                continue
            labels = obj.metadata.labels or {}
            if all(labels.get(k) == v for k, v in selector_labels.items()):
                matched.append(obj)
        return matched

    def __len__(self):
        return len(self._items)

    def __contains__(self, key):
        return key in self._items
