"""ReplicaSet and Deployment controllers.

Enough of the workload stack to run realistic SaaS-style examples: a
Deployment manages one ReplicaSet per template revision, a ReplicaSet
keeps N Pods alive.
"""

from repro.apiserver.errors import AlreadyExists, NotFound
from repro.objects import OwnerReference, Pod, ReplicaSet
from repro.objects.meta import split_key

from .base import Controller


def _owned_by(obj, owner):
    return any(ref.uid == owner.uid and ref.controller
               for ref in obj.metadata.owner_references)


def _controller_ref(owner):
    return OwnerReference(
        api_version=owner.API_VERSION, kind=owner.KIND, name=owner.name,
        uid=owner.uid, controller=True, block_owner_deletion=True)


class ReplicaSetController(Controller):
    name = "replicaset-controller"
    workers = 2

    def __init__(self, sim, client, informer_factory):
        super().__init__(sim, client)
        self._replicasets = informer_factory.informer("replicasets")
        self._pods = informer_factory.informer("pods")
        self._replicasets.add_handlers(
            on_add=self.enqueue_object,
            on_update=lambda old, new: self.enqueue_object(new),
        )
        self._pods.add_handlers(
            on_add=self._on_pod_change,
            on_update=lambda old, new: self._on_pod_change(new),
            on_delete=self._on_pod_change,
        )

    def _on_pod_change(self, pod):
        for ref in pod.metadata.owner_references:
            if ref.kind == "ReplicaSet" and ref.controller:
                key = (f"{pod.namespace}/{ref.name}"
                       if pod.namespace else ref.name)
                self.enqueue(key)

    def _owned_pods(self, rs):
        return [pod for pod in self._pods.cache.by_namespace(rs.namespace)
                if _owned_by(pod, rs) and not pod.is_terminal
                and pod.metadata.deletion_timestamp is None]

    def reconcile(self, key):
        rs = self._replicasets.cache.get(key)
        if rs is None or rs.metadata.deletion_timestamp is not None:
            return
        pods = self._owned_pods(rs)
        desired = rs.spec.replicas or 0
        diff = desired - len(pods)
        if diff > 0:
            for index in range(diff):
                pod = Pod()
                pod.metadata.generate_name = f"{rs.name}-"
                pod.metadata.namespace = rs.namespace
                pod.metadata.labels = dict(
                    rs.spec.template.metadata.labels or {})
                pod.metadata.owner_references = [_controller_ref(rs)]
                pod.spec = rs.spec.template.spec    # shared, never edited
                try:
                    yield from self.client.create(pod)
                except AlreadyExists:
                    pass
        elif diff < 0:
            doomed = sorted(pods, key=lambda p: p.metadata.creation_timestamp
                            or 0, reverse=True)[:-diff]
            for pod in doomed:
                try:
                    yield from self.client.delete("pods", pod.name,
                                                  namespace=pod.namespace)
                except NotFound:
                    pass
        # Status update.
        ready = sum(1 for pod in pods if pod.status.is_ready)
        if (rs.status.replicas != len(pods)
                or rs.status.ready_replicas != ready
                or rs.status.observed_generation != rs.metadata.generation):
            try:
                yield from self.client.update_status(rs.replace(
                    status=rs.status.replace(
                        replicas=len(pods), ready_replicas=ready,
                        observed_generation=rs.metadata.generation)))
            except NotFound:
                pass


class DeploymentController(Controller):
    name = "deployment-controller"
    workers = 2

    def __init__(self, sim, client, informer_factory):
        super().__init__(sim, client)
        self._deployments = informer_factory.informer("deployments")
        self._replicasets = informer_factory.informer("replicasets")
        self._deployments.add_handlers(
            on_add=self.enqueue_object,
            on_update=lambda old, new: self.enqueue_object(new),
        )
        self._replicasets.add_handlers(
            on_add=self._on_rs_change,
            on_update=lambda old, new: self._on_rs_change(new),
            on_delete=self._on_rs_change,
        )

    def _on_rs_change(self, rs):
        for ref in rs.metadata.owner_references:
            if ref.kind == "Deployment" and ref.controller:
                key = (f"{rs.namespace}/{ref.name}"
                       if rs.namespace else ref.name)
                self.enqueue(key)

    def _template_hash(self, deployment):
        import hashlib

        payload = str(deployment.spec.template.to_dict())
        return hashlib.sha1(payload.encode()).hexdigest()[:10]

    def reconcile(self, key):
        namespace, _name = split_key(key)
        deployment = self._deployments.cache.get(key)
        if deployment is None:
            return
        template_hash = self._template_hash(deployment)
        rs_name = f"{deployment.name}-{template_hash}"
        owned = [rs for rs in self._replicasets.cache.by_namespace(namespace)
                 if _owned_by(rs, deployment)]
        current = next((rs for rs in owned if rs.name == rs_name), None)

        if current is None:
            rs = ReplicaSet()
            rs.metadata.name = rs_name
            rs.metadata.namespace = namespace
            rs.metadata.labels = dict(
                deployment.spec.template.metadata.labels or {})
            rs.metadata.owner_references = [_controller_ref(deployment)]
            rs.spec.replicas = deployment.spec.replicas
            rs.spec.selector = deployment.spec.selector
            rs.spec.template = deployment.spec.template     # shared, never edited
            try:
                yield from self.client.create(rs)
            except AlreadyExists:
                pass
        else:
            if current.spec.replicas != deployment.spec.replicas:
                yield from self.client.update(current.replace(
                    spec=current.spec.replace(
                        replicas=deployment.spec.replicas)))
        # Scale down old replica sets (recreate-style rollover).
        for rs in owned:
            if rs.name != rs_name and (rs.spec.replicas or 0) > 0:
                try:
                    yield from self.client.update(
                        rs.replace(spec=rs.spec.replace(replicas=0)))
                except NotFound:
                    pass
        # Status roll-up.
        ready = sum(rs.status.ready_replicas for rs in owned)
        replicas = sum(rs.status.replicas for rs in owned)
        if (deployment.status.ready_replicas != ready
                or deployment.status.replicas != replicas):
            try:
                yield from self.client.update_status(deployment.replace(
                    status=deployment.status.replace(
                        ready_replicas=ready, replicas=replicas,
                        observed_generation=deployment.metadata.generation)))
            except NotFound:
                pass
