"""Owner-reference garbage collector.

Deletes dependents whose controller owner no longer exists (e.g. Pods of
a deleted ReplicaSet).  Tracks a subset of (owner kind → dependent
plural) edges sufficient for the workload controllers in this repo.

Event-driven, like upstream's GraphBuilder + attemptToDelete: a
dependent is checked when it is added or updated, an owner's delete
enqueues its dependents, and a relist reaches the same handlers.  Nothing
polls, so an idle control plane costs the collector no kernel event.
``start`` sweeps the caches once, so a standby promoted after owners
vanished still collects their dependents.
"""

from repro.apiserver.errors import NotFound

from .base import Controller

# Dependent resources checked for dangling owners.
DEPENDENT_PLURALS = ("pods", "replicasets")
# Owner kind -> the resource it is read from.
OWNER_PLURALS = {"ReplicaSet": "replicasets", "Deployment": "deployments"}


class GarbageCollector(Controller):
    name = "garbage-collector"

    def __init__(self, sim, client, informer_factory):
        super().__init__(sim, client)
        self._informers = {
            plural: informer_factory.informer(plural)
            for plural in DEPENDENT_PLURALS
        }
        self._owner_informers = {
            kind: informer_factory.informer(plural)
            for kind, plural in OWNER_PLURALS.items()
        }
        for plural, informer in self._informers.items():
            informer.add_handlers(
                on_add=lambda obj, p=plural: self._check(p, obj),
                on_update=lambda old, new, p=plural: self._check(p, new),
            )
        for informer in self._owner_informers.values():
            informer.add_handlers(on_delete=self._on_owner_deleted)

    def start(self):
        processes = super().start()
        for plural, informer in self._informers.items():
            for obj in informer.cache.items():
                self._check(plural, obj)
        return processes

    def _check(self, plural, obj):
        if self._dangling_owner(obj) is not None:
            self.enqueue(f"{plural}|{obj.key}")

    def _on_owner_deleted(self, owner):
        # The dependents' namespace index plus a uid match: an owner index
        # on the shared caches would tax every upsert on the hot path.
        for plural, informer in self._informers.items():
            for obj in informer.cache.by_namespace(owner.namespace):
                if any(ref.uid == owner.uid
                       for ref in obj.metadata.owner_references):
                    self.enqueue(f"{plural}|{obj.key}")

    def _dangling_owner(self, obj):
        """The controller ref whose owner this collector's cache lacks
        (or holds under another uid), or None."""
        for ref in obj.metadata.owner_references:
            if not ref.controller:
                continue
            owner_informer = self._owner_informers.get(ref.kind)
            if owner_informer is None:
                continue
            owner_key = (f"{obj.namespace}/{ref.name}"
                         if obj.namespace else ref.name)
            owner = owner_informer.cache.get(owner_key)
            if owner is None or owner.uid != ref.uid:
                return ref
        return None

    def reconcile(self, key):
        plural, obj_key = key.split("|", 1)
        obj = self._informers[plural].cache.get(obj_key)
        if obj is None:
            return
        ref = self._dangling_owner(obj)
        if ref is None:
            return
        # Confirm with a live read before deleting, as upstream's
        # attemptToDeleteItem does: a lagging owner informer must never
        # cost a live dependent.
        try:
            owner = yield from self.client.get(
                OWNER_PLURALS[ref.kind], ref.name, namespace=obj.namespace)
        except NotFound:
            owner = None
        if owner is not None and owner.uid == ref.uid:
            return
        try:
            yield from self.client.delete(plural, obj.name,
                                          namespace=obj.namespace)
        except NotFound:
            pass
