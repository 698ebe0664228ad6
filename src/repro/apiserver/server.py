"""The apiserver: typed CRUD + list + watch over the MVCC store.

All request-handling methods are simulation coroutines: callers invoke
them as ``result = yield from api.create(cred, obj)`` inside a simulated
process.  Each request pays the configured authn/authz/admission overhead
plus etcd latency.  Where priority-and-fairness is installed (DESIGN.md
§15), a request holds an APF seat while being processed — the
shared-control-plane pressure point the paper's Figure 1 describes.
"""

import string

from repro.config import DEFAULT_CONFIG
from repro.objects import Namespace, generate_uid
from repro.objects.base import check_decoded_shape, freeze
from repro.objects.meta import same_spec
from repro.objects.selectors import equality_hint, match_fields
from repro.telemetry import ChildCache, telemetry_of
from repro.objects.validation import ValidationError, validate_metadata
from repro.storage import (
    EVENT_PUT,
    EtcdStore,
    KeyAlreadyExists,
    KeyNotFound,
    RevisionConflict,
)

from .admission import AdmissionRequest, default_admission_chain
from .auth import ADMIN, Authenticator
from .errors import (
    AlreadyExists,
    BadRequest,
    Conflict,
    Invalid,
    NotFound,
    ServerUnavailable,
)
from .registry import ResourceRegistry

_NAME_ALPHABET = string.ascii_lowercase + string.digits


class StoreReader:
    """Zero-latency internal reads used by admission and RBAC.

    Results are the apiserver's shared snapshots (see
    :meth:`APIServer._decode`): read, never mutate.
    """

    def __init__(self, server):
        self._server = server

    def read(self, plural, namespace, name):
        obj_type = self._server.registry.get(plural)
        key = self._server._key(obj_type, namespace, name)
        stored = self._server.store.try_get_stored(key)
        if stored is None:
            return None
        return self._server._decode(obj_type, stored)

    def read_all(self, plural, namespace=None):
        """Every object of a resource, or only those in ``namespace``."""
        obj_type = self._server.registry.get(plural)
        prefix = self._server._prefix(obj_type, namespace)
        items, _revision = self._server.store.list_stored(prefix)
        return [self._server._decode(obj_type, stored)
                for _key, stored in items]


class WatchStream:
    """A typed watch over one resource (optionally one namespace).

    Field/label selector filtering happens server-side (a predicate on
    the raw store events), so only relevant events reach this stream.
    """

    def __init__(self, server, obj_type, watch):
        self._server = server
        self._obj_type = obj_type
        self._watch = watch
        self.closed = False

    def next(self):
        """Coroutine: wait for and return the next (type, object) event."""
        event = yield self._watch.channel.get()
        delay = self._server.config.apiserver.watch_delivery
        if delay:
            yield self._server.sim.timeout(delay)
        return self._translate(event)

    def _translate(self, event):
        if event.type == EVENT_PUT:
            kind = "ADDED" if event.prev_value is None else "MODIFIED"
            return kind, self._server._decode(self._obj_type, event.stored)
        return "DELETED", self._server._deleted(self._obj_type,
                                                event.stored)

    def stop(self):
        self.closed = True
        self._watch.cancel()
        # Deregister so a long-lived server doesn't accumulate dead
        # streams (reflectors relist many times over a simulation).
        try:
            self._server._watch_streams.remove(self)
        except ValueError:
            pass


class APIServer:
    """One control plane's apiserver."""

    def __init__(self, sim, name, config=None, store=None):
        self.sim = sim
        self.name = name
        self.config = config or DEFAULT_CONFIG
        # ``is not None``, not truthiness: an *empty* injected store has
        # __len__() == 0 and would be silently replaced.
        self.serve_from(store if store is not None
                        else EtcdStore(sim, name=f"{name}-etcd"))
        self.registry = ResourceRegistry()
        self.reader = StoreReader(self)
        self.authenticator = Authenticator()
        self.authenticator.register(ADMIN)
        self.admission = default_admission_chain()
        # The one admission mechanism (DESIGN.md §15): an APFLimiter
        # classifying requests into per-tier levels with shuffle-shard
        # queues and Retry-After shedding, which the super cluster
        # installs when ``config.apf.enabled``.  None (the default) admits
        # every request at once: no concurrency cap.
        self.apf = None
        self._watch_streams = []
        # Dict values decoded (see _decode): the only decodes left.
        self.decodes = 0
        self.request_count = 0
        # Requests from tenant users (not system:masters infrastructure):
        # what the idle swapper treats as activity, so syncer heartbeats
        # don't keep a tenant-idle control plane resident.
        self.user_request_count = 0
        self.healthy = True
        telemetry = telemetry_of(sim)
        self._tracer = telemetry.tracer
        requests_total = telemetry.counter(
            "apiserver_requests_total", "apiserver requests by verb",
            labels=("server", "verb"))
        self._requests_by_verb = ChildCache(
            lambda verb: requests_total.labels(server=name, verb=verb))
        # Chaos hook (see repro.chaos.faults): may inject per-verb errors
        # or latency into the request path.
        self.fault_injector = None
        # Optional idle-swap support (see repro.core.swapper): when set
        # and swapped out, the first request pays the page-in latency.
        self.swap_state = None

    def serve_from(self, store):
        """Serve from ``store``: at construction, and on each failover of
        a replica group, whose hook re-points this reference at the new
        leader's store.  A down store (killed, or a deposed group leader)
        raises a retryable ServerUnavailable, not a raw storage error
        clients don't know how to classify."""
        store.set_unavailable_factory(ServerUnavailable)
        self.store = store

    # ------------------------------------------------------------------
    # Keys and codecs
    # ------------------------------------------------------------------

    def _key(self, obj_type, namespace, name):
        if obj_type.NAMESPACED:
            if not namespace:
                raise BadRequest(
                    f"{obj_type.PLURAL} is namespaced; namespace required")
            return f"/registry/{obj_type.PLURAL}/{namespace}/{name}"
        return f"/registry/{obj_type.PLURAL}/{name}"

    def _prefix(self, obj_type, namespace=None):
        if obj_type.NAMESPACED and namespace:
            return f"/registry/{obj_type.PLURAL}/{namespace}/"
        return f"/registry/{obj_type.PLURAL}/"

    def _decode(self, obj_type, stored):
        """The typed snapshot of one stored record at its revision.

        A record this apiserver wrote holds its snapshot: the object
        written, stamped with the record's revision and frozen, which
        every ``get``/``list``/watch delivery of that (key, revision)
        returns.  Whoever wants to change it takes ``replace()`` or
        ``copy()`` first.  A dict value — replayed from a log, or
        written into the store directly — is decoded by its first
        reader, stamped, and put in the record's place: the only decode.
        """
        obj = stored.value
        if isinstance(obj, dict):
            self.decodes += 1
            obj = obj_type.from_dict(obj)
            obj.metadata.resource_version = str(stored.mod_revision)
            stored.value = obj = freeze(obj)
        return obj

    def _deleted(self, obj_type, stored):
        """A DELETE event's snapshot: the removed revision's, re-stamped
        with the delete revision once, in the event record's place."""
        obj = self._decode(obj_type, stored)
        revision = str(stored.mod_revision)
        if obj.metadata.resource_version != revision:
            obj = obj.replace(metadata=obj.metadata.replace(
                resource_version=revision))
            stored.value = obj = freeze(obj)
        return obj

    def _write(self, write, key, obj, *args):
        """Store ``obj`` as the next revision of ``key`` with the store's
        ``write`` (create or update), stamped with the revision the
        store assigns — its next one, since writes apply one at a time —
        before the store freezes it.  Returns the stored snapshot."""
        obj.metadata.resource_version = str(self.store.revision + 1)
        write(key, obj, *args)
        return obj

    def _remove(self, key, obj, revision):
        """Delete ``key``'s record (CAS on ``revision``) for good, and let
        the admission plugins drop what they hold for ``obj`` (a
        Service's cluster IP)."""
        self.store.delete(key, expected_revision=revision)
        for plugin in self.admission:
            plugin.release(obj)

    @staticmethod
    def _raw_matcher(label_selector, field_selector):
        """Selector test on a stored value, typed or dict (None when
        nothing is selected): lists and watches filter without decoding
        or encoding."""
        if label_selector is None and not field_selector:
            return None

        def matches(value):
            if label_selector is not None:
                if isinstance(value, dict):
                    labels = (value.get("metadata") or {}).get("labels")
                else:
                    labels = value.metadata.labels
                if not label_selector.matches(labels or {}):
                    return False
            return not field_selector or match_fields(field_selector, value)

        return matches

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------

    def _begin(self, credential, verb, plural):
        """Common request front half: authn, admission, overhead.

        Returns ``(credential, span, ticket)``; the span covers the
        whole request (queueing included) and both span and APF ticket
        are settled by :meth:`_release`.
        """
        if not self.healthy:
            raise ServerUnavailable(f"{self.name} is down")
        if not self.store.available:
            raise ServerUnavailable(f"{self.name}: storage unavailable")
        if self.fault_injector is not None:
            yield from self.fault_injector.on_request(verb, plural)
        self.request_count += 1
        self._requests_by_verb[verb].inc()
        span = self._tracer.start(f"apiserver.{verb}")
        ticket = None
        try:
            credential = self.authenticator.authenticate(credential)
            is_system = "system:masters" in credential.groups
            if not is_system:
                self.user_request_count += 1
            if self.apf is not None:
                # May queue (bounded) or shed with a structured 429
                # before any wake cost is paid.
                ticket = yield from self.apf.acquire(credential)
            if self.swap_state is not None and not is_system:
                # System traffic (syncer heartbeats, controller scans) is
                # served from the residual resident set; only tenant
                # traffic pages a swapped control plane back in.
                yield from self.swap_state.ensure_awake()
            yield self.sim.timeout(self.config.apiserver.request_overhead)
        except BaseException:
            if ticket is not None:
                self.apf.release(ticket)
            self._tracer.finish(span, error=True)
            raise
        return credential, span, ticket

    def _release(self, span, ticket):
        if ticket is not None:
            self.apf.release(ticket)
        self._tracer.finish(span)

    def _admit(self, credential, verb, plural, obj, old_obj, namespace):
        request = AdmissionRequest(verb, plural, obj, old_obj=old_obj,
                                   namespace=namespace, credential=credential)
        for plugin in self.admission:
            plugin.admit(request, self.reader)
        return request

    # ------------------------------------------------------------------
    # CRUD
    # ------------------------------------------------------------------

    def _prepare_create(self, obj, namespace):
        """Pre-auth normalization shared by create() and transaction():
        a shell of ``obj`` with a metadata shell of its own, which the
        create fills in.  Every other child stays the caller's: the
        stored snapshot takes them over, as an update's does."""
        obj_type = type(obj)
        plural = obj_type.PLURAL
        if not self.registry.has(plural):
            raise NotFound(f"no resource {plural!r} registered")
        meta = obj.metadata.replace()
        if obj_type.NAMESPACED:
            meta.namespace = meta.namespace or namespace
        if meta.name is None and meta.generate_name:
            meta.name = self._generate_name(meta.generate_name)
        return obj.replace(metadata=meta)

    def _create_core(self, credential, obj):
        """Validate, admit and store a prepared object (synchronous)."""
        obj_type = type(obj)
        plural = obj_type.PLURAL
        try:
            validate_metadata(obj, obj_type.NAMESPACED)
        except ValidationError as exc:
            raise Invalid(str(exc)) from exc
        check_decoded_shape(obj)
        obj = self._admit(credential, "create", plural, obj, None,
                          obj.metadata.namespace).obj
        meta = obj.metadata
        meta.uid = generate_uid(self.sim)
        meta.creation_timestamp = self.sim.now
        meta.generation = 1
        key = self._key(obj_type, meta.namespace, meta.name)
        try:
            return self._write(self.store.create, key, obj)
        except KeyAlreadyExists as exc:
            raise AlreadyExists(
                f"{plural} {obj.key!r} already exists") from exc

    def create(self, credential, obj, namespace=None):
        """Coroutine: persist a new object; returns the stored snapshot
        (shared and read-only: ``replace()`` before editing).  The
        caller's children become the snapshot's: the caller must not
        edit them afterwards either."""
        obj = self._prepare_create(obj, namespace)
        credential, span, ticket = yield from self._begin(
            credential, "create", type(obj).PLURAL)
        try:
            obj = self._create_core(credential, obj)
            yield self.sim.timeout(self.config.apiserver.etcd_write)
            return obj
        finally:
            self._release(span, ticket)

    def get(self, credential, plural, name, namespace=None):
        """Coroutine: fetch one object (a shared snapshot — ``copy()`` or
        ``replace()`` before editing); raises NotFound."""
        obj_type = self.registry.get(plural)
        credential, span, ticket = yield from self._begin(
            credential, "get", plural)
        try:
            key = self._key(obj_type, namespace, name)
            try:
                stored = self.store.get_stored(key)
            except KeyNotFound as exc:
                raise NotFound(f"{plural} {name!r} not found") from exc
            yield self.sim.timeout(self.config.apiserver.etcd_read)
            return self._decode(obj_type, stored)
        finally:
            self._release(span, ticket)

    def list(self, credential, plural, namespace=None, label_selector=None,
             field_selector=None):
        """Coroutine: list objects (shared snapshots); returns
        (items, resource_version)."""
        obj_type = self.registry.get(plural)
        credential, span, ticket = yield from self._begin(
            credential, "list", plural)
        try:
            prefix = self._prefix(obj_type, namespace)
            stored_items, revision = self.store.list_stored(prefix)
            # The store keeps the events after ``revision`` until this
            # list returns: a reflector's watch resumes from it in the
            # same kernel step.
            release_hold = self.store.hold(revision)
            try:
                cost = (self.config.apiserver.list_base
                        + self.config.apiserver.list_per_item
                        * len(stored_items))
                yield self.sim.timeout(cost)
                matches = self._raw_matcher(label_selector, field_selector)
                items = [self._decode(obj_type, stored)
                         for _key, stored in stored_items
                         if matches is None or matches(stored.value)]
                return items, str(revision)
            finally:
                release_hold()
        finally:
            self._release(span, ticket)

    def update(self, credential, obj, subresource=None):
        """Coroutine: replace an object (CAS on its resourceVersion).

        ``subresource="status"`` replaces only the status block, like the
        real ``/status`` subresource used by kubelets and controllers.
        Returns the stored snapshot: a shell around the caller's children
        (for ``status``, the stored spec and the caller's status) with a
        metadata shell of its own carrying the new resourceVersion.
        """
        credential, span, ticket = yield from self._begin(
            credential, "update", type(obj).PLURAL)
        try:
            new_obj = self._update_core(credential, obj,
                                        subresource=subresource)
            yield self.sim.timeout(self.config.apiserver.etcd_write)
            return new_obj
        finally:
            self._release(span, ticket)

    def _update_core(self, credential, obj, subresource=None):
        """CAS-check, admit and store an update (synchronous)."""
        obj_type = type(obj)
        plural = obj_type.PLURAL
        key = self._key(obj_type, obj.metadata.namespace,
                        obj.metadata.name)
        try:
            record = self.store.get_stored(key)
        except KeyNotFound as exc:
            raise NotFound(f"{plural} {obj.key!r} not found") from exc
        stored_rev = record.mod_revision
        stored = self._decode(obj_type, record)

        expected = None
        if obj.metadata.resource_version:
            expected = int(obj.metadata.resource_version)
            if expected != stored_rev:
                raise Conflict(
                    f"{plural} {obj.key!r}: stale resourceVersion "
                    f"{expected} (current {stored_rev})")

        # Copy-on-write: a new shell around the stored snapshot's spec
        # and the caller's status, or around the caller's children; the
        # metadata is a shell of its own for the server-owned fields and
        # the resourceVersion written below.
        if subresource == "status":
            changes = {"metadata": stored.metadata.replace(
                resource_version=None)}
            if hasattr(obj, "status"):
                changes["status"] = obj.status
            new_obj = stored.replace(**changes)
        else:
            metadata = obj.metadata.replace(
                uid=stored.metadata.uid,
                creation_timestamp=stored.metadata.creation_timestamp,
                generation=stored.metadata.generation,
                resource_version=None)
            new_obj = obj.replace(metadata=metadata)
            request = self._admit(credential, "update", plural, new_obj,
                                  stored, metadata.namespace)
            if not same_spec(stored, request.obj):
                metadata.generation += 1

        # Finalizer bookkeeping: removing the last finalizer of a
        # deleted object actually removes the object.
        if (new_obj.metadata.deletion_timestamp is not None
                and not new_obj.metadata.finalizers
                and not self._namespace_pinned(new_obj)):
            self._remove(key, new_obj, stored_rev)
            return new_obj

        try:
            return self._write(self.store.update, key, new_obj, stored_rev)
        except RevisionConflict as exc:
            raise Conflict(str(exc)) from exc

    def delete(self, credential, plural, name, namespace=None):
        """Coroutine: delete an object (honouring finalizers)."""
        credential, span, ticket = yield from self._begin(
            credential, "delete", plural)
        try:
            obj = self._delete_core(credential, plural, name, namespace)
            yield self.sim.timeout(self.config.apiserver.etcd_write)
            return obj
        finally:
            self._release(span, ticket)

    def _delete_core(self, credential, plural, name, namespace=None):
        """Delete or mark-for-finalization (synchronous)."""
        obj_type = self.registry.get(plural)
        key = self._key(obj_type, namespace, name)
        try:
            record = self.store.get_stored(key)
        except KeyNotFound as exc:
            raise NotFound(f"{plural} {name!r} not found") from exc
        stored_rev = record.mod_revision
        obj = self._decode(obj_type, record)

        needs_finalization = (bool(obj.metadata.finalizers)
                              or self._namespace_pinned(obj))
        if needs_finalization:
            if obj.metadata.deletion_timestamp is None:
                obj = obj.replace(metadata=obj.metadata.replace(
                    deletion_timestamp=self.sim.now))
                if isinstance(obj, Namespace):
                    obj = obj.replace(
                        status=obj.status.replace(phase="Terminating"))
                obj = self._write(self.store.update, key, obj, stored_rev)
            return obj
        self._remove(key, obj, stored_rev)
        return obj

    def _namespace_pinned(self, obj):
        """Namespaces finalize through spec.finalizers, not metadata."""
        return isinstance(obj, Namespace) and bool(obj.spec.finalizers)

    # ------------------------------------------------------------------
    # Multi-op transaction (batched writes)
    # ------------------------------------------------------------------

    @staticmethod
    def _op_plural(op):
        verb = op[0]
        if verb in ("create", "update"):
            return type(op[1]).PLURAL
        return op[1]

    def transaction(self, credential, ops, fencing=None):
        """Coroutine: apply a batch of writes as one multi-op request.

        ``ops`` is a list of tuples:

        - ``("create", obj, namespace)``
        - ``("update", obj, subresource)``
        - ``("delete", plural, name, namespace)``

        The whole batch pays one request overhead / inflight slot and a
        single etcd round trip (``etcd_write`` plus ``etcd_txn_per_op``
        per op) — the write-amplification fix for the syncer hot path.
        Sub-operations run through the same validate/admit/CAS cores as
        their single-op counterparts and apply at consecutive store
        revisions, so the converged store state is identical to issuing
        the ops sequentially.  Per-op failures are captured: the result
        list holds each op's object or the :class:`ApiError` it raised.

        ``fencing`` is an optional ``(domain, token)`` leader-election
        guard checked against the store *before* any op applies; a
        revoked token fails the whole batch with the non-retryable
        :class:`FencingConflict`.  An *empty* fenced transaction is a
        fence barrier: it establishes the token floor for ``domain``
        without writing anything, which new leaders issue before serving
        so a deposed predecessor's in-flight batches can no longer land.
        """
        from .errors import ApiError

        if not ops:
            if fencing is None:
                return []
            credential, span, ticket = yield from self._begin(
                credential, "update", "leases")
            try:
                self._check_fence(fencing)
                yield self.sim.timeout(self.config.apiserver.etcd_write)
                return []
            finally:
                self._release(span, ticket)
        credential, span, ticket = yield from self._begin(
            credential, ops[0][0], self._op_plural(ops[0]))
        try:
            # Per-op chaos checks, so a fault targeting e.g. pod creates
            # still hits batched creates (skip ops[0]: _begin covered it).
            if self.fault_injector is not None:
                for op in ops[1:]:
                    yield from self.fault_injector.on_request(
                        op[0], self._op_plural(op))

            if fencing is not None:
                self._check_fence(fencing)
            thunks = [self._op_thunk(credential, op) for op in ops]
            results = self.store.txn(thunks)
            for result in results:
                # Only API errors are per-op outcomes; anything else is a
                # programming error and must not be swallowed.
                if (isinstance(result, Exception)
                        and not isinstance(result, ApiError)):
                    raise result
            cfg = self.config.apiserver
            yield self.sim.timeout(cfg.etcd_write
                                   + cfg.etcd_txn_per_op * len(ops))
            return results
        finally:
            self._release(span, ticket)

    def _check_fence(self, fencing):
        """Validate a (domain, token) pair against the store's fence
        floor, translating the storage error into an API error."""
        from repro.storage import FencingRevoked

        from .errors import FencingConflict

        domain, token = fencing
        try:
            self.store.check_fence(domain, token)
        except FencingRevoked as exc:
            raise FencingConflict(str(exc)) from exc

    def _op_thunk(self, credential, op):
        """One transaction sub-op as a zero-arg callable for store.txn."""
        verb = op[0]
        if verb == "create":
            _, obj, namespace = op
            prepared = self._prepare_create(obj, namespace)
            return lambda: self._create_core(credential, prepared)
        if verb == "update":
            _, obj, subresource = op
            return lambda: self._update_core(credential, obj,
                                             subresource=subresource)
        if verb == "delete":
            _, plural, name, namespace = op
            return lambda: self._delete_core(credential, plural, name,
                                             namespace)
        raise BadRequest(f"unknown transaction op {verb!r}")

    # ------------------------------------------------------------------
    # Watch / binding / helpers
    # ------------------------------------------------------------------

    def watch(self, credential, plural, namespace=None, from_revision=None,
              label_selector=None, field_selector=None):
        """Open a watch stream (synchronous registration)."""
        self.authenticator.authenticate(credential)
        obj_type = self.registry.get(plural)
        prefix = self._prefix(obj_type, namespace)

        predicate = None
        matches = self._raw_matcher(label_selector, field_selector)
        if matches is not None:
            def predicate(event):
                return matches(event.value)

        # An equality on one field lets the store ask only the watches
        # selecting the event's value of it; the predicate still decides.
        watch = self.store.watch(prefix, from_revision=from_revision,
                                 predicate=predicate,
                                 hint=equality_hint(field_selector))
        stream = WatchStream(self, obj_type, watch)
        self._watch_streams.append(stream)
        return stream

    def bind_pod(self, credential, name, namespace, node_name):
        """Coroutine: the pods/binding subresource used by the scheduler."""
        pod = yield from self.get(credential, "pods", name,
                                  namespace=namespace)
        if pod.spec.node_name:
            raise Conflict(
                f"pod {pod.key!r} already bound to {pod.spec.node_name!r}")
        pod = pod.replace(spec=pod.spec.replace(node_name=node_name))
        yield self.sim.timeout(self.config.scheduler.binding_write)
        return (yield from self.update(credential, pod))

    def crash(self):
        """Simulate an apiserver restart: all watches break."""
        self.healthy = False
        for stream in list(self._watch_streams):
            stream.stop()
        self._watch_streams = []

    def recover(self):
        self.healthy = True

    def _generate_name(self, base):
        suffix = "".join(self.sim.rng.choice(_NAME_ALPHABET)
                         for _ in range(5))
        return f"{base}{suffix}"
