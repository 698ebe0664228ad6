"""Event recorder (client-go ``record.EventRecorder``).

Components emit Events about objects; repeated occurrences aggregate
into one Event with an increasing count, as in real Kubernetes.  Events
recorded in the super cluster about tenant objects are synced upward by
the syncer's event reconciler, so tenants can ``kubectl describe`` their
pods and see scheduler/kubelet activity.
"""

from repro.apiserver.errors import ApiError
from repro.objects import Event
from repro.objects.meta import ObjectReference


class EventRecorder:
    """Best-effort, fire-and-forget event emission."""

    def __init__(self, sim, client, component):
        self.sim = sim
        self.client = client
        self.component = component
        self._seen = {}
        self.emitted = 0
        self.dropped = 0

    def event(self, obj, reason, message, event_type="Normal"):
        """Record an event about ``obj`` (spawns a background write)."""
        self.sim.spawn(self._record(obj, reason, message, event_type),
                       name=f"event-{reason}")

    def _record(self, obj, reason, message, event_type):
        key = (obj.uid or obj.key, reason)
        existing = self._seen.get(key)
        try:
            if existing is not None:
                fresh = yield from self.client.get(
                    "events", existing, namespace=obj.namespace)
                yield from self.client.update(fresh.replace(
                    count=fresh.count + 1, last_timestamp=self.sim.now,
                    message=message))
                self.emitted += 1
                return
        except ApiError:
            self._seen.pop(key, None)

        event = Event()
        event.metadata.generate_name = f"{obj.name}."
        event.metadata.namespace = obj.namespace
        event.involved_object = ObjectReference(
            api_version=type(obj).API_VERSION, kind=type(obj).KIND,
            namespace=obj.namespace, name=obj.name, uid=obj.uid)
        event.reason = reason
        event.message = message
        event.type = event_type
        event.count = 1
        event.first_timestamp = self.sim.now
        event.last_timestamp = self.sim.now
        event.source = {"component": self.component}
        try:
            created = yield from self.client.create(event)
            self._seen[key] = created.metadata.name
            self.emitted += 1
        except ApiError:
            self.dropped += 1
