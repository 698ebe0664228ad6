"""Micro op costs: isolated loops over each layer's public functions on a
bare ``Simulation``.  µs per op, median of ``BATCHES`` fixed-size
batches, run unprofiled in a process of their own (``python -m
bench.micro`` prints them as one JSON object).  Sizes are fixed, so the
work is identical on every commit; only the host time may move.
"""

import json
import statistics
import sys
import time

from repro.apiserver import ADMIN, APIServer
from repro.clientgo import Client
from repro.clientgo.cache import ObjectCache
from repro.clientgo.fairqueue import FairWorkQueue
from repro.objects import Pod, make_namespace, make_node, make_pod
from repro.objects.base import fast_deep_copy
from repro.objects.selectors import match_fields
from repro.scheduler.plugins import ClusterSnapshot, default_filters
from repro.simkernel import Simulation
from repro.storage import EtcdStore

BATCHES = 9


def _median_us(batch, ops_per_batch):
    """Median over BATCHES calls of ``batch()``, in µs per op."""
    samples = []
    for _ in range(BATCHES):
        started = time.perf_counter()
        batch()
        samples.append((time.perf_counter() - started) / ops_per_batch)
    return statistics.median(samples) * 1e6


def _pod(index=0, node="node-000"):
    return make_pod(f"pod-{index:05d}", labels={"app": "micro"},
                    cpu="100m", memory="64Mi", node_name=node)


def pod_roundtrip():
    pod = _pod()

    def batch():
        for _ in range(2000):
            Pod.from_dict(pod.to_dict())
    return _median_us(batch, 2000)


def pod_deep_copy():
    wire = _pod().to_dict()

    def batch():
        for _ in range(4000):
            fast_deep_copy(wire)
    return _median_us(batch, 4000)


def store_put():
    store = EtcdStore(Simulation(), name="micro-put")
    wire = _pod().to_dict()
    counter = iter(range(10**9))

    def batch():
        for _ in range(2000):
            store.create(f"/registry/pods/default/p{next(counter)}", wire)
    return _median_us(batch, 2000)


def _filled_store(keys):
    store = EtcdStore(Simulation(), name="micro-read")
    wire = _pod().to_dict()
    for index in range(keys):
        store.create(f"/registry/pods/default/p{index:05d}", wire)
    return store


def store_get():
    store = _filled_store(1000)

    def batch():
        for _ in range(4):
            for index in range(1000):
                store.get(f"/registry/pods/default/p{index:05d}")
    return _median_us(batch, 4000)


def store_list_1k():
    store = _filled_store(1000)

    def batch():
        for _ in range(5):
            store.list_prefix("/registry/pods/")
    return _median_us(batch, 5)


def store_watch_fanout_100w():
    """One write evaluated by 100 field-selector watches (one per node,
    as 100 kubelets watching ``spec.nodeName``); one of them matches."""
    store = EtcdStore(Simulation(), name="micro-fanout")
    watches = []
    for index in range(100):
        selector = {"spec.nodeName": f"node-{index:03d}"}
        watches.append(store.watch(
            "/registry/pods/",
            predicate=lambda event, selector=selector:
                match_fields(selector, event.value)))
    wire = _pod(node="node-042").to_dict()
    counter = iter(range(10**9))

    def batch():
        for _ in range(200):
            store.create(f"/registry/pods/default/p{next(counter)}", wire)
        for watch in watches:      # drain, so channels stay small
            while len(watch.channel):
                watch.channel.get()
    return _median_us(batch, 200)


def kernel_timeout():
    """Schedule and dispatch one timer."""
    sim = Simulation()

    def batch():
        for index in range(10000):
            sim.timeout(0.001 * (index % 50))
        sim.run()
    return _median_us(batch, 10000)


def fairqueue_cycle():
    """add + get + done with 20 tenants taking turns."""
    sim = Simulation()
    queue = FairWorkQueue(sim, name="micro")
    tenants = [f"tenant-{index:02d}" for index in range(20)]

    def batch():
        for index in range(4000):
            queue.add(tenants[index % 20], index)
        for _ in range(4000):
            tenant, key, _enqueued = queue.get().value
            queue.done(tenant, key)
    return _median_us(batch, 4000)


def cache_upsert():
    cache = ObjectCache(size_factor=21.0, size_overhead=512)
    pods = [_pod(index) for index in range(500)]

    def batch():
        for _ in range(4):
            for pod in pods:
                cache.upsert(pod)
    return _median_us(batch, 2000)


def scheduler_filter_100n():
    """The default filter chain for one Pod over 100 nodes."""
    nodes = [make_node(f"node-{index:03d}") for index in range(100)]
    snapshot = ClusterSnapshot(nodes, {}, {})
    filters = default_filters()
    pod = make_pod("pending", cpu="100m", memory="64Mi")

    def batch():
        for _ in range(30):
            for node in nodes:
                for plugin in filters:
                    if plugin.filter(pod, node, snapshot) is not None:
                        break
    return _median_us(batch, 30)


def apiserver_create():
    """One Pod create through client and apiserver, kernel included."""
    sim = Simulation()
    api = APIServer(sim, "micro")
    api.authenticator.register(ADMIN)
    client = Client(sim, api, ADMIN, user_agent="micro", qps=1e9, burst=10**9)
    sim.run(until=sim.process(client.create(make_namespace("default")),
                              name="micro-namespace"))
    counter = iter(range(10**9))

    def creates():
        for _ in range(200):
            yield from client.create(make_pod(f"pod-{next(counter)}"))

    def batch():
        sim.run(until=sim.process(creates(), name="micro-create"))
    return _median_us(batch, 200)


MICRO = {
    "objects.pod_roundtrip_us": pod_roundtrip,
    "objects.pod_deep_copy_us": pod_deep_copy,
    "storage.put_us": store_put,
    "storage.get_us": store_get,
    "storage.list_1k_us": store_list_1k,
    "storage.watch_fanout_100w_us": store_watch_fanout_100w,
    "simkernel.timeout_us": kernel_timeout,
    "clientgo.fairqueue_cycle_us": fairqueue_cycle,
    "clientgo.cache_upsert_us": cache_upsert,
    "scheduler.filter_100n_us": scheduler_filter_100n,
    "apiserver.create_us": apiserver_create,
}


def main():
    json.dump({name: loop() for name, loop in MICRO.items()}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
