"""Endpoints controller: maintains Endpoints for every Service.

Watches Services and Pods; for each Service it builds endpoint subsets
from the ready Pods matching the Service selector.  kubeproxy (standard
or enhanced) consumes these Endpoints to program routing rules.
"""

from repro.apiserver.errors import AlreadyExists, NotFound
from repro.objects import Endpoints, EndpointSubset, match_label_dict
from repro.objects.meta import split_key
from repro.objects.service import EndpointAddress, EndpointPort

from .base import Controller


class EndpointsController(Controller):
    name = "endpoints-controller"
    workers = 2

    def __init__(self, sim, client, informer_factory):
        super().__init__(sim, client)
        self._services = informer_factory.informer("services")
        self._pods = informer_factory.informer("pods")
        self._endpoints = informer_factory.informer("endpoints")
        self._services.add_handlers(
            on_add=self.enqueue_object,
            on_update=lambda old, new: self.enqueue_object(new),
            on_delete=self.enqueue_object,
        )
        self._pods.add_handlers(
            on_add=self._on_pod_change,
            on_update=lambda old, new: self._on_pod_change(new),
            on_delete=self._on_pod_change,
        )

    def _on_pod_change(self, pod):
        """Requeue every service in the namespace selecting this pod."""
        for service in self._services.cache.by_namespace(pod.namespace):
            if match_label_dict(service.spec.selector, pod.metadata.labels):
                self.enqueue_object(service)

    def reconcile(self, key):
        namespace, name = split_key(key)
        service = self._services.cache.get(key)
        if service is None:
            # Service deleted: remove its endpoints.
            try:
                yield from self.client.delete("endpoints", name,
                                              namespace=namespace)
            except NotFound:
                pass
            return
        if not service.spec.selector:
            return  # manually-managed endpoints

        subset = EndpointSubset()
        # The label index intersects selector postings instead of walking
        # (and label-matching) every pod in the namespace.
        for pod in self._pods.cache.select_labels(service.spec.selector,
                                                  namespace=namespace):
            if pod.is_terminal or not pod.status.pod_ip:
                continue
            address = EndpointAddress(
                ip=pod.status.pod_ip,
                node_name=pod.spec.node_name,
                target_ref={"kind": "Pod", "name": pod.name,
                            "namespace": namespace, "uid": pod.uid},
            )
            if pod.status.is_ready:
                subset.addresses.append(address)
            else:
                subset.not_ready_addresses.append(address)
        subset.ports = [
            EndpointPort(name=port.name, port=port.target_port or port.port,
                         protocol=port.protocol)
            for port in service.spec.ports
        ]
        subsets = [subset] if (subset.addresses
                               or subset.not_ready_addresses) else []

        existing = self._endpoints.cache.get(key)
        if existing is None:
            endpoints = Endpoints()
            endpoints.metadata.name = name
            endpoints.metadata.namespace = namespace
            endpoints.subsets = subsets
            try:
                yield from self.client.create(endpoints)
            except AlreadyExists:
                self.enqueue(key)
            return
        if [s.to_dict() for s in existing.subsets] == [s.to_dict()
                                                       for s in subsets]:
            return
        yield from self.client.update(existing.replace(subsets=subsets))
