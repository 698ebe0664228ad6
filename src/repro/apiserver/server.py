"""The apiserver: typed CRUD + list + watch over the MVCC store.

All request-handling methods are simulation coroutines: callers invoke
them as ``result = yield from api.create(cred, obj)`` inside a simulated
process.  Each request pays the configured authn/authz/admission overhead
plus etcd latency, and holds a max-inflight slot while being processed —
which is exactly the shared-control-plane pressure point the paper's
Figure 1 describes.
"""

import string

from repro.config import DEFAULT_CONFIG
from repro.objects import Namespace, generate_uid
from repro.objects.base import freeze
from repro.objects.selectors import equality_hint, match_fields
from repro.telemetry import telemetry_of
from repro.objects.validation import ValidationError, validate_metadata
from repro.storage import (
    EVENT_PUT,
    EtcdStore,
    KeyAlreadyExists,
    KeyNotFound,
    RevisionConflict,
)

from .admission import AdmissionRequest, default_admission_chain
from .auth import ADMIN, AllowAllAuthorizer, Authenticator, RBACAuthorizer
from .errors import (
    AlreadyExists,
    BadRequest,
    Conflict,
    Invalid,
    NotFound,
)
from .ratelimit import MaxInflightLimiter
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
        obj = self._server._decode(self._obj_type, event.stored)
        if event.type == EVENT_PUT:
            kind = "ADDED" if event.prev_value is None else "MODIFIED"
        else:
            kind = "DELETED"
        return kind, obj

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

    def __init__(self, sim, name, config=None, store=None, registry=None,
                 authorizer=None, admission_plugins=None, rbac=False,
                 per_user_inflight=None, apf=None):
        self.sim = sim
        self.name = name
        self.config = config or DEFAULT_CONFIG
        # ``is not None``, not truthiness: an *empty* injected store has
        # __len__() == 0 and would be silently replaced.
        self.store = (store if store is not None
                      else EtcdStore(sim, name=f"{name}-etcd"))
        if hasattr(self.store, "set_unavailable_factory"):
            # A down store (killed leader, leaderless replica group)
            # surfaces as a retryable ServerUnavailable, not a raw
            # storage error clients don't know how to classify.
            from .errors import ServerUnavailable

            self.store.set_unavailable_factory(
                lambda message: ServerUnavailable(message))
        self.registry = registry or ResourceRegistry()
        self.reader = StoreReader(self)
        self.authenticator = Authenticator()
        self.authenticator.register(ADMIN)
        if authorizer is not None:
            self.authorizer = authorizer
        elif rbac:
            self.authorizer = RBACAuthorizer(self.reader)
        else:
            self.authorizer = AllowAllAuthorizer()
        self.admission = (admission_plugins
                          if admission_plugins is not None
                          else default_admission_chain())
        self._inflight = MaxInflightLimiter(
            sim, self.config.apiserver.max_inflight,
            name=f"{name}-inflight")
        # Legacy per-user concurrency shares (Fig. 1 ablation).
        self._apf = None
        if per_user_inflight is not None:
            from .ratelimit import PerUserInflightLimiter

            self._apf = PerUserInflightLimiter(
                sim, per_user_inflight, name=f"{name}-apf")
        # Tiered priority-and-fairness admission (DESIGN.md §15): an
        # APFLimiter classifying requests into per-tier levels with
        # shuffle-shard queues and Retry-After shedding.  None (the
        # default) keeps the seed's request path byte-identical.
        self.apf = apf
        self._watch_streams = []
        # Exact read-outs of the decode memo (see _decode): wire values
        # decoded, and reads served by an already-decoded snapshot.
        self.decodes = 0
        self.decode_hits = 0
        self.request_count = 0
        # Requests from tenant users (not system:masters infrastructure):
        # what the idle swapper treats as activity, so syncer heartbeats
        # don't keep a tenant-idle control plane resident.
        self.user_request_count = 0
        self.healthy = True
        telemetry = telemetry_of(sim)
        self._tracer = telemetry.tracer
        self._requests_total = telemetry.counter(
            "apiserver_requests_total", "apiserver requests by verb",
            labels=("server", "verb"))
        # Chaos hook (see repro.chaos.faults): may inject per-verb errors
        # or latency into the request path.
        self.fault_injector = None
        # Optional idle-swap support (see repro.core.swapper): when set
        # and swapped out, the first request pays the page-in latency.
        self.swap_state = None

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
        """The typed snapshot of one stored value at its revision.

        Decoded at most once: the first reader fills the
        :class:`~repro.storage.etcd.StoredValue`'s memo slot, and every
        later ``get``/``list``/watch delivery of that (key, revision)
        returns the same object.  It is shared, hence frozen: whoever
        wants to change it takes ``replace()`` or ``copy()`` first.
        """
        obj = stored.decoded
        if obj is None:
            self.decodes += 1
            obj = obj_type.from_dict(stored.value)
            obj.metadata.resource_version = str(stored.mod_revision)
            stored.decoded = freeze(obj)
        else:
            self.decode_hits += 1
        return obj

    @staticmethod
    def _raw_matcher(label_selector, field_selector):
        """Selector test on a wire dict (None when nothing is selected),
        so lists and watches filter before they decode."""
        if label_selector is None and not field_selector:
            return None

        def matches(raw):
            if label_selector is not None:
                labels = (raw.get("metadata") or {}).get("labels") or {}
                if not label_selector.matches(labels):
                    return False
            return not field_selector or match_fields(field_selector, raw)

        return matches

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------

    def _begin(self, credential, verb, plural, namespace=None, name=None):
        """Common request front half: authn, authz, admission, overhead.

        Returns ``(credential, span, ticket)``; the span covers the
        whole request (queueing included) and both span and APF ticket
        are settled by :meth:`_release`.
        """
        if not self.healthy:
            from .errors import ServerUnavailable

            raise ServerUnavailable(f"{self.name} is down")
        if not getattr(self.store, "available", True):
            from .errors import ServerUnavailable

            raise ServerUnavailable(f"{self.name}: storage unavailable")
        if self.fault_injector is not None:
            yield from self.fault_injector.on_request(verb, plural)
        self.request_count += 1
        self._requests_total.labels(server=self.name, verb=verb).inc()
        span = self._span_start(verb)
        ticket = None
        try:
            credential = self.authenticator.authenticate(credential)
            self.authorizer.authorize(credential, verb, plural, namespace,
                                      name)
            is_system = "system:masters" in credential.groups
            if not is_system:
                self.user_request_count += 1
            if self.apf is not None:
                # Tiered admission: may queue (bounded) or shed with a
                # structured 429 before any seat or wake cost is paid.
                ticket = yield from self.apf.acquire(credential, verb,
                                                     plural)
            if self.swap_state is not None and not is_system:
                # System traffic (syncer heartbeats, controller scans) is
                # served from the residual resident set; only tenant
                # traffic pages a swapped control plane back in.
                yield from self.swap_state.ensure_awake()
            if self._apf is not None:
                yield self._apf.acquire(credential.user)
            yield self._inflight.acquire()
            try:
                yield self.sim.timeout(
                    self.config.apiserver.request_overhead)
            except BaseException:
                self._release(credential, ticket=ticket)  # span below
                ticket = None
                raise
        except BaseException:
            if ticket is not None:
                self.apf.release(ticket)
            self._span_finish(span, error=True)
            raise
        return credential, span, ticket

    def _release(self, credential, span=None, ticket=None):
        self._inflight.release()
        if self._apf is not None:
            self._apf.release(credential.user)
        if ticket is not None:
            self.apf.release(ticket)
        self._span_finish(span)

    def _span_start(self, verb):
        if not self._tracer.enabled:
            return None
        return self._tracer.start(f"apiserver.{verb}")

    def _span_finish(self, span, error=False):
        if span is not None:
            self._tracer.finish(span, error=error)

    def _admit(self, credential, verb, plural, obj, old_obj, namespace):
        request = AdmissionRequest(verb, plural, obj, old_obj=old_obj,
                                   namespace=namespace, credential=credential)
        for plugin in self.admission:
            plugin.admit(request, self.reader)

    # ------------------------------------------------------------------
    # CRUD
    # ------------------------------------------------------------------

    def _prepare_create(self, obj, namespace):
        """Pre-auth normalization shared by create() and transaction()."""
        obj_type = type(obj)
        plural = obj_type.PLURAL
        if not self.registry.has(plural):
            raise NotFound(f"no resource {plural!r} registered")
        obj = obj.copy()
        if obj_type.NAMESPACED:
            obj.metadata.namespace = obj.metadata.namespace or namespace
        if obj.metadata.name is None and obj.metadata.generate_name:
            obj.metadata.name = self._generate_name(obj.metadata.generate_name)
        return obj

    def _create_core(self, credential, obj):
        """Validate, admit and store a prepared object (synchronous)."""
        obj_type = type(obj)
        plural = obj_type.PLURAL
        try:
            validate_metadata(obj, obj_type.NAMESPACED)
        except ValidationError as exc:
            raise Invalid(str(exc)) from exc
        self._admit(credential, "create", plural, obj, None,
                    obj.metadata.namespace)
        obj.metadata.uid = generate_uid(self.sim)
        obj.metadata.creation_timestamp = self.sim.now
        obj.metadata.generation = 1
        obj.metadata.resource_version = None
        key = self._key(obj_type, obj.metadata.namespace, obj.metadata.name)
        try:
            revision = self.store.create(key, obj.to_dict())
        except KeyAlreadyExists as exc:
            raise AlreadyExists(
                f"{plural} {obj.key!r} already exists") from exc
        obj.metadata.resource_version = str(revision)
        return obj

    def create(self, credential, obj, namespace=None):
        """Coroutine: persist a new object; returns the stored copy (a
        private object the caller may edit and send back)."""
        obj = self._prepare_create(obj, namespace)
        credential, span, ticket = yield from self._begin(
            credential, "create", type(obj).PLURAL, obj.metadata.namespace,
            obj.metadata.name)
        try:
            obj = self._create_core(credential, obj)
            yield self.sim.timeout(self.config.apiserver.etcd_write)
            return obj
        finally:
            self._release(credential, span, ticket)

    def get(self, credential, plural, name, namespace=None):
        """Coroutine: fetch one object (a shared snapshot — ``copy()`` or
        ``replace()`` before editing); raises NotFound."""
        obj_type = self.registry.get(plural)
        credential, span, ticket = yield from self._begin(
            credential, "get", plural, namespace, name)
        try:
            key = self._key(obj_type, namespace, name)
            try:
                stored = self.store.get_stored(key)
            except KeyNotFound as exc:
                raise NotFound(f"{plural} {name!r} not found") from exc
            yield self.sim.timeout(self.config.apiserver.etcd_read)
            return self._decode(obj_type, stored)
        finally:
            self._release(credential, span, ticket)

    def list(self, credential, plural, namespace=None, label_selector=None,
             field_selector=None):
        """Coroutine: list objects (shared snapshots); returns
        (items, resource_version)."""
        obj_type = self.registry.get(plural)
        credential, span, ticket = yield from self._begin(
            credential, "list", plural, namespace)
        try:
            prefix = self._prefix(obj_type, namespace)
            stored_items, revision = self.store.list_stored(prefix)
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
            self._release(credential, span, ticket)

    def update(self, credential, obj, subresource=None):
        """Coroutine: replace an object (CAS on its resourceVersion).

        ``subresource="status"`` replaces only the status block, like the
        real ``/status`` subresource used by kubelets and controllers.
        """
        credential, span, ticket = yield from self._begin(
            credential, "update", type(obj).PLURAL, obj.metadata.namespace,
            obj.metadata.name)
        try:
            new_obj = self._update_core(credential, obj,
                                        subresource=subresource)
            yield self.sim.timeout(self.config.apiserver.etcd_write)
            return new_obj
        finally:
            self._release(credential, span, ticket)

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

        if subresource == "status":
            # Copy-on-write: a new shell around the stored snapshot's
            # spec and the caller's status, with a metadata shell of its
            # own for the resourceVersion written below.
            changes = {"metadata": stored.metadata.replace(
                resource_version=None)}
            if hasattr(obj, "status"):
                changes["status"] = obj.status
            new_obj = stored.replace(**changes)
        else:
            new_obj = obj.copy()
            new_obj.metadata.uid = stored.metadata.uid
            new_obj.metadata.creation_timestamp = (
                stored.metadata.creation_timestamp)
            new_obj.metadata.generation = stored.metadata.generation
            if self._spec_changed(stored, new_obj):
                new_obj.metadata.generation += 1
            self._admit(credential, "update", plural, new_obj, stored,
                        new_obj.metadata.namespace)

        # Finalizer bookkeeping: removing the last finalizer of a
        # deleted object actually removes the object.
        if (new_obj.metadata.deletion_timestamp is not None
                and not new_obj.metadata.finalizers
                and not self._namespace_pinned(new_obj)):
            self.store.delete(key, expected_revision=stored_rev)
            new_obj.metadata.resource_version = None
            return new_obj

        new_obj.metadata.resource_version = None
        try:
            revision = self.store.update(key, new_obj.to_dict(),
                                         expected_revision=stored_rev)
        except RevisionConflict as exc:
            raise Conflict(str(exc)) from exc
        new_obj.metadata.resource_version = str(revision)
        return new_obj

    def patch(self, credential, plural, name, patch, namespace=None):
        """Coroutine: deep-merge ``patch`` (a dict) into the stored object."""
        obj_type = self.registry.get(plural)
        current = yield from self.get(credential, plural, name,
                                      namespace=namespace)
        merged = obj_type.from_dict(_deep_merge(current.to_dict(), patch))
        merged.metadata.resource_version = current.metadata.resource_version
        return (yield from self.update(credential, merged))

    def delete(self, credential, plural, name, namespace=None):
        """Coroutine: delete an object (honouring finalizers)."""
        credential, span, ticket = yield from self._begin(
            credential, "delete", plural, namespace, name)
        try:
            obj = self._delete_core(credential, plural, name, namespace)
            yield self.sim.timeout(self.config.apiserver.etcd_write)
            return obj
        finally:
            self._release(credential, span, ticket)

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
                    deletion_timestamp=self.sim.now, resource_version=None))
                if isinstance(obj, Namespace):
                    obj = obj.replace(
                        status=obj.status.replace(phase="Terminating"))
                revision = self.store.update(
                    key, obj.to_dict(), expected_revision=stored_rev)
                obj.metadata.resource_version = str(revision)
            return obj
        self.store.delete(key, expected_revision=stored_rev)
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
                self._release(credential, span, ticket)
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
            self._release(credential, span, ticket)

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
        plural = self._op_plural(op)
        if verb == "create":
            _, obj, namespace = op
            prepared = self._prepare_create(obj, namespace)
            self.authorizer.authorize(credential, "create", plural,
                                      prepared.metadata.namespace,
                                      prepared.metadata.name)
            return lambda: self._create_core(credential, prepared)
        if verb == "update":
            _, obj, subresource = op
            self.authorizer.authorize(credential, "update", plural,
                                      obj.metadata.namespace,
                                      obj.metadata.name)
            return lambda: self._update_core(credential, obj,
                                             subresource=subresource)
        if verb == "delete":
            _, plural, name, namespace = op
            self.authorizer.authorize(credential, "delete", plural,
                                      namespace, name)
            return lambda: self._delete_core(credential, plural, name,
                                             namespace)
        raise BadRequest(f"unknown transaction op {verb!r}")

    # ------------------------------------------------------------------
    # Watch / binding / helpers
    # ------------------------------------------------------------------

    def watch(self, credential, plural, namespace=None, from_revision=None,
              label_selector=None, field_selector=None):
        """Open a watch stream (synchronous registration)."""
        credential = self.authenticator.authenticate(credential)
        self.authorizer.authorize(credential, "watch", plural, namespace)
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

    def _spec_changed(self, old, new):
        old_spec = getattr(old, "spec", None)
        new_spec = getattr(new, "spec", None)
        if old_spec is None or new_spec is None:
            return False
        dump = (old_spec.to_dict() if hasattr(old_spec, "to_dict")
                else old_spec)
        dump_new = (new_spec.to_dict() if hasattr(new_spec, "to_dict")
                    else new_spec)
        return dump != dump_new


def _deep_merge(base, patch):
    """Strategic-merge-lite: dicts merge recursively, everything else replaces.

    A ``None`` value in the patch deletes the key.
    """
    out = dict(base)
    for key, value in patch.items():
        if value is None:
            out.pop(key, None)
        elif isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out
