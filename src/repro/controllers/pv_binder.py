"""PersistentVolume binder: pairs PVCs with PVs, provisions dynamically.

PVCs and PVs are among the resource types the syncer moves between
control planes; this controller gives them real lifecycle semantics in
the super cluster: a pending claim binds to a matching available volume
(capacity and storage class), or a new volume is provisioned when the
claim's storage class has a provisioner.
"""

from repro.apiserver.errors import AlreadyExists, ApiError, Conflict, NotFound
from repro.objects import PersistentVolume, Quantity
from repro.objects.meta import split_key

from .base import Controller


def _requested_bytes(pvc):
    request = (((pvc.spec or {}).get("resources") or {})
               .get("requests") or {}).get("storage", "0")
    return Quantity.parse(request)


def _capacity_bytes(pv):
    capacity = ((pv.spec or {}).get("capacity") or {}).get("storage", "0")
    return Quantity.parse(capacity)


class PersistentVolumeBinder(Controller):
    name = "pv-binder"
    provision_delay = 0.4

    def __init__(self, sim, client, informer_factory):
        super().__init__(sim, client)
        self._pvcs = informer_factory.informer("persistentvolumeclaims")
        self._pvs = informer_factory.informer("persistentvolumes")
        self._classes = informer_factory.informer("storageclasses")
        self._pvcs.add_handlers(
            on_add=self.enqueue_object,
            on_update=lambda old, new: self.enqueue_object(new),
        )
        self._pvs.add_handlers(
            on_add=self._on_pv_change,
            on_update=lambda old, new: self._on_pv_change(new),
        )
        self.bound_count = 0
        self.provisioned_count = 0

    def _on_pv_change(self, pv):
        # A newly-available volume may satisfy pending claims.
        for pvc in self._pvcs.cache.items():
            if pvc.phase == "Pending":
                self.enqueue_object(pvc)

    def reconcile(self, key):
        namespace, _name = split_key(key)
        pvc = self._pvcs.cache.get(key)
        if pvc is None or pvc.phase == "Bound":
            return
        volume = self._find_available_volume(pvc)
        if volume is None:
            volume = yield from self._provision(pvc)
            if volume is None:
                return  # no volume, no provisioner: stays Pending
        yield from self._bind(pvc, volume, namespace)

    def _find_available_volume(self, pvc):
        needed = _requested_bytes(pvc)
        wanted_class = (pvc.spec or {}).get("storageClassName")
        candidates = []
        for pv in self._pvs.cache.items():
            if (pv.status or {}).get("phase", "Available") != "Available":
                continue
            if (pv.spec or {}).get("claimRef"):
                continue
            if wanted_class and (pv.spec or {}).get(
                    "storageClassName") != wanted_class:
                continue
            if _capacity_bytes(pv) < needed:
                continue
            candidates.append(pv)
        # Smallest fitting volume first (minimize waste).
        candidates.sort(key=_capacity_bytes)
        return candidates[0] if candidates else None

    def _provision(self, pvc):
        """Dynamic provisioning via the claim's storage class."""
        wanted_class = (pvc.spec or {}).get("storageClassName")
        if not wanted_class:
            return None
        storage_class = self._classes.cache.get(wanted_class)
        if storage_class is None or not storage_class.provisioner:
            return None
        yield self.sim.timeout(self.provision_delay)
        volume = PersistentVolume()
        volume.metadata.name = f"pv-{pvc.namespace}-{pvc.name}"
        volume.spec = {
            "capacity": {"storage": (((pvc.spec or {}).get("resources")
                                      or {}).get("requests")
                                     or {}).get("storage", "1Gi")},
            "storageClassName": wanted_class,
            "provisionedBy": storage_class.provisioner,
        }
        volume.status = {"phase": "Available"}
        try:
            created = yield from self.client.create(volume)
            self.provisioned_count += 1
            return created
        except AlreadyExists:
            try:
                return (yield from self.client.get(
                    "persistentvolumes", volume.metadata.name))
            except NotFound:
                return None

    def _bind(self, pvc, volume, namespace):
        volume = volume.replace(
            spec={**(volume.spec or {}),
                  "claimRef": {"namespace": pvc.namespace,
                               "name": pvc.name, "uid": pvc.uid}},
            status={"phase": "Bound"})
        try:
            yield from self.client.update(volume)
        except (Conflict, NotFound):
            self.enqueue(pvc.key)
            return
        fresh = pvc.replace(
            spec={**(pvc.spec or {}), "volumeName": volume.metadata.name},
            status={"phase": "Bound"})
        try:
            yield from self.client.update(fresh)
            self.bound_count += 1
        except (Conflict, NotFound):
            # Roll the volume back to Available for the next attempt.
            try:
                volume.spec.pop("claimRef", None)
                volume.status = {"phase": "Available"}
                yield from self.client.update(volume)
            except ApiError:
                pass
            self.enqueue(pvc.key)
