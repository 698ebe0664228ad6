"""Namespace lifecycle controller.

When a namespace is deleted it enters ``Terminating``; this controller
deletes every namespaced object inside it, then clears the ``kubernetes``
spec finalizer, which lets the apiserver remove the namespace itself.
"""

from repro.apiserver.errors import ApiError, Conflict, NotFound

from .base import Controller

# Resource types swept on namespace termination, in deletion order.
SWEPT_RESOURCES = (
    "pods",
    "services",
    "endpoints",
    "secrets",
    "configmaps",
    "serviceaccounts",
    "persistentvolumeclaims",
    "resourcequotas",
    "events",
    "roles",
    "rolebindings",
    "deployments",
    "replicasets",
)


class NamespaceController(Controller):
    name = "namespace-controller"
    workers = 2

    def __init__(self, sim, client, informer_factory):
        super().__init__(sim, client)
        self._namespaces = informer_factory.informer("namespaces")
        self._namespaces.add_handlers(
            on_add=self._maybe_enqueue,
            on_update=lambda old, new: self._maybe_enqueue(new),
        )

    def _maybe_enqueue(self, namespace):
        if namespace.is_terminating:
            self.enqueue_object(namespace)

    def reconcile(self, key):
        namespace = self._namespaces.cache.get(key)
        if namespace is None or not namespace.is_terminating:
            return
        remaining = 0
        for plural in SWEPT_RESOURCES:
            try:
                items, _rv = yield from self.client.list(
                    plural, namespace=namespace.name)
            except ApiError:
                continue
            for obj in items:
                remaining += 1
                try:
                    yield from self.client.delete(plural, obj.name,
                                                  namespace=namespace.name)
                except (NotFound, Conflict):
                    pass
        if remaining:
            # Objects may have finalizers of their own; check again shortly.
            self.queue.add_after(key, 0.2)
            return
        # Everything swept: release the namespace finalizer.
        if "kubernetes" in namespace.spec.finalizers:
            try:
                yield from self.client.update(namespace.replace(
                    spec=namespace.spec.replace(finalizers=[
                        f for f in namespace.spec.finalizers
                        if f != "kubernetes"])))
            except (NotFound, Conflict):
                pass
