"""Unit tests for client, reflector, and shared informer."""

import pytest

from repro.apiserver import ADMIN, APIServer, TooManyRequests
from repro.clientgo import Client, InformerFactory, SharedInformer
from repro.objects import make_namespace, make_pod
from repro.objects.base import FrozenError
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation()


@pytest.fixture
def api(sim):
    return APIServer(sim, "api")


@pytest.fixture
def client(sim, api):
    return Client(sim, api, ADMIN, user_agent="test", qps=10000, burst=10000)


def run(sim, coroutine):
    return sim.run(until=sim.process(coroutine))


def bootstrap(sim, client):
    run(sim, client.create(make_namespace("default")))


class TestClient:
    def test_qps_throttling_spaces_requests(self, sim, api):
        slow = Client(sim, api, ADMIN, qps=2, burst=1, user_agent="slow")
        bootstrap(sim, slow)
        times = []

        def burst():
            for i in range(3):
                yield from slow.create(make_pod(f"p{i}"))
                times.append(sim.now)

        run(sim, burst())
        # 2 qps with burst 1: requests roughly 0.5s apart.
        assert times[1] - times[0] >= 0.45
        assert times[2] - times[1] >= 0.45

    def test_retry_on_retryable_error(self, sim, api, client):
        bootstrap(sim, client)
        calls = []
        original = api.get

        def flaky_get(credential, plural, name, namespace=None):
            calls.append(1)
            if len(calls) < 3:
                raise TooManyRequests("slow down")
            return (yield from original(credential, plural, name,
                                        namespace=namespace))

        run(sim, client.create(make_pod("p")))
        api.get = flaky_get
        pod = run(sim, client.get("pods", "p", namespace="default"))
        assert pod.name == "p"
        assert len(calls) == 3

    def test_non_retryable_error_propagates(self, sim, api, client):
        from repro.apiserver import NotFound

        bootstrap(sim, client)
        with pytest.raises(NotFound):
            run(sim, client.get("pods", "missing", namespace="default"))

    def test_cpu_account_charged(self, sim, api):
        account = sim.accounting.cpu_account("syncer-test")
        charged = Client(sim, api, ADMIN, cpu_account=account,
                         user_agent="charged")
        bootstrap(sim, charged)
        assert account.seconds > 0

    def test_kubeconfig_builds_client(self, sim, api):
        from repro.clientgo import Kubeconfig

        kubeconfig = Kubeconfig(api, ADMIN)
        built = kubeconfig.client(sim)
        bootstrap(sim, built)
        pod = run(sim, built.create(make_pod("p")))
        assert pod.metadata.uid


class TestInformer:
    def test_initial_list_populates_cache(self, sim, client):
        bootstrap(sim, client)
        run(sim, client.create(make_pod("pre-existing")))
        informer = SharedInformer(sim, client, "pods")
        informer.start()
        sim.run(until=sim.now + 1)
        assert informer.has_synced
        assert "default/pre-existing" in informer.cache

    def test_watch_events_update_cache(self, sim, client):
        bootstrap(sim, client)
        informer = SharedInformer(sim, client, "pods")
        informer.start()
        sim.run(until=sim.now + 0.5)
        run(sim, client.create(make_pod("new")))
        sim.run(until=sim.now + 0.5)
        assert informer.cache.get("default/new") is not None

    def test_handlers_fire_in_order(self, sim, client):
        bootstrap(sim, client)
        events = []
        informer = SharedInformer(sim, client, "pods")
        informer.add_handlers(
            on_add=lambda o: events.append(("add", o.name)),
            on_update=lambda old, new: events.append(("update", new.name)),
            on_delete=lambda o: events.append(("delete", o.name)),
        )
        informer.start()
        sim.run(until=sim.now + 0.5)

        def mutate():
            pod = yield from client.create(make_pod("p"))
            pod.metadata.labels["x"] = "1"
            yield from client.update(pod)
            yield from client.delete("pods", "p", namespace="default")

        run(sim, mutate())
        sim.run(until=sim.now + 0.5)
        assert events == [("add", "p"), ("update", "p"), ("delete", "p")]

    def test_get_copy_isolated_from_cache(self, sim, client):
        """A cache entry is a shared frozen snapshot — the same object in
        every informer on that apiserver — so mutating it raises at any
        depth; ``copy()``/``replace()`` give the writer its own object."""
        bootstrap(sim, client)
        informers = [SharedInformer(sim, client, "pods") for _ in range(2)]
        for informer in informers:
            informer.start()
        run(sim, client.create(make_pod("p", labels={"app": "x"})))
        sim.run(until=sim.now + 0.5)
        entry = informers[0].cache.get("default/p")
        assert informers[1].cache.get("default/p") is entry
        assert run(sim, client.get("pods", "p", namespace="default")) is entry
        for mutate in (
                lambda: setattr(entry, "status", None),
                lambda: setattr(entry.status, "phase", "Mutated"),
                lambda: delattr(entry.spec, "node_name"),
                lambda: entry.metadata.labels.__setitem__("app", "y"),
                lambda: entry.spec.containers.append(None),
                lambda: setattr(entry.spec.containers[0], "image", "evil")):
            with pytest.raises(FrozenError):
                mutate()
        mine = entry.copy()
        mine.status.phase = "Mutated"
        mine.metadata.labels["app"] = "y"
        shell = entry.replace(status=entry.status.replace(phase="Shell"))
        assert shell.spec is entry.spec
        assert entry.status.phase == "Pending"
        assert entry.metadata.labels == {"app": "x"}

    def test_relist_after_apiserver_crash(self, sim, api, client):
        bootstrap(sim, client)
        informer = SharedInformer(sim, client, "pods")
        informer.start()
        run(sim, client.create(make_pod("before")))
        sim.run(until=sim.now + 0.5)
        api.crash()
        sim.run(until=sim.now + 0.5)
        api.recover()
        run(sim, client.create(make_pod("after")))
        sim.run(until=sim.now + 3)
        assert informer.cache.get("default/after") is not None
        assert informer.reflector.list_count >= 2

    def test_cache_byte_accounting(self, sim, client):
        bootstrap(sim, client)
        informer = SharedInformer(sim, client, "pods", size_factor=10.0,
                                  size_overhead=100)
        informer.start()
        sim.run(until=sim.now + 0.2)
        assert informer.cache.total_bytes == 0
        run(sim, client.create(make_pod("p")))
        sim.run(until=sim.now + 0.5)
        first = informer.cache.total_bytes
        assert first > 100
        run(sim, client.delete("pods", "p", namespace="default"))
        sim.run(until=sim.now + 0.5)
        assert informer.cache.total_bytes == 0

    def test_field_selector_informer_scopes_cache(self, sim, client):
        bootstrap(sim, client)
        factory = InformerFactory(sim, client)
        scoped = factory.informer("pods",
                                  field_selector={"spec.nodeName": "n1"})
        scoped.start()
        sim.run(until=sim.now + 0.2)
        run(sim, client.create(make_pod("a", node_name="n1")))
        run(sim, client.create(make_pod("b", node_name="n2")))
        sim.run(until=sim.now + 0.5)
        assert "default/a" in scoped.cache
        assert "default/b" not in scoped.cache

    def test_factory_reuses_informers(self, sim, client):
        factory = InformerFactory(sim, client)
        assert factory.informer("pods") is factory.informer("pods")
        assert factory.informer("pods") is not factory.informer("services")


class TestWorkQueueShutdown:
    """Shutdown-path audit: waiters wake, late done() never raises."""

    def test_shutdown_wakes_blocked_waiters(self, sim):
        from repro.clientgo import ShutDown, WorkQueue

        queue = WorkQueue(sim)
        outcomes = []

        def worker():
            try:
                yield queue.get()
            except ShutDown:
                outcomes.append("shutdown")

        for _ in range(3):
            sim.spawn(worker())
        sim.run(until=sim.now + 0.1)
        queue.shutdown()
        sim.run(until=sim.now + 0.1)
        assert outcomes == ["shutdown", "shutdown", "shutdown"]

    def test_done_after_shutdown_is_noop(self, sim):
        from repro.clientgo import WorkQueue

        queue = WorkQueue(sim)
        queue.add("a")

        def worker():
            item, _t = yield queue.get()
            queue.add(item)  # goes dirty while processing
            queue.shutdown()
            queue.done(item)  # must not raise nor re-queue

        sim.run(until=sim.spawn(worker()))
        assert len(queue) == 0
        assert not queue._dirty

    def test_interrupted_waiter_does_not_swallow_items(self, sim):
        """A worker interrupted while blocked in get() leaves a dead
        event queued; items must skip it and reach live consumers."""
        from repro.clientgo import WorkQueue

        queue = WorkQueue(sim)
        got = []

        def doomed():
            try:
                yield queue.get()
            except Exception:
                return

        def survivor():
            item, _t = yield queue.get()
            got.append(item)
            queue.done(item)

        victim = sim.spawn(doomed())
        sim.run(until=sim.now + 0.05)
        victim.interrupt("killed while waiting")
        sim.run(until=sim.now + 0.05)
        sim.spawn(survivor())
        sim.run(until=sim.now + 0.05)
        queue.add("x")
        sim.run(until=sim.now + 0.05)
        assert got == ["x"]
        assert not queue._processing

    def test_fair_queue_interrupted_waiter_and_shutdown(self, sim):
        from repro.clientgo import FairWorkQueue, ShutDown

        queue = FairWorkQueue(sim)
        queue.register_tenant("t1")
        got, outcomes = [], []

        def doomed():
            try:
                yield queue.get()
            except Exception:
                return

        def survivor():
            try:
                tenant, key, _t = yield queue.get()
                got.append((tenant, key))
                queue.done(tenant, key)
            except ShutDown:
                outcomes.append("shutdown")

        victim = sim.spawn(doomed())
        sim.run(until=sim.now + 0.05)
        victim.interrupt("killed while waiting")
        sim.run(until=sim.now + 0.05)
        sim.spawn(survivor())
        sim.run(until=sim.now + 0.05)
        queue.add("t1", "k")
        sim.run(until=sim.now + 0.05)
        assert got == [("t1", "k")]

        blocked = sim.spawn(survivor())
        sim.run(until=sim.now + 0.05)
        queue.shutdown()
        sim.run(until=sim.now + 0.05)
        assert not blocked.is_alive
        assert outcomes == ["shutdown"]

    def test_fair_queue_done_after_remove_tenant(self, sim):
        """A late done() must not resurrect a removed tenant's queue."""
        from repro.clientgo import FairWorkQueue

        queue = FairWorkQueue(sim)
        queue.add("t1", "k")

        def worker():
            tenant, key, _t = yield queue.get()
            queue.add(tenant, key)  # dirty while processing
            queue.remove_tenant(tenant)
            queue.done(tenant, key)  # must not re-register t1

        sim.run(until=sim.spawn(worker()))
        assert "t1" not in queue.tenants
        assert len(queue) == 0

    def test_fair_queue_done_after_shutdown(self, sim):
        from repro.clientgo import FairWorkQueue

        queue = FairWorkQueue(sim)
        queue.add("t1", "k")

        def worker():
            tenant, key, _t = yield queue.get()
            queue.add(tenant, key)
            queue.shutdown()
            queue.done(tenant, key)  # no raise, no re-queue

        sim.run(until=sim.spawn(worker()))
        assert len(queue) == 0


class TestReflectorStop:
    def test_stop_during_inflight_list_leaves_no_streams(self, sim, api,
                                                         client):
        """stop() while the initial LIST is in flight must not leak the
        watch stream or the server/store registrations."""
        bootstrap(sim, client)
        run(sim, client.create(make_pod("p")))
        informer = SharedInformer(sim, client, "pods")
        informer.start()
        # A hair of sim time: inside the LIST, before the WATCH opens.
        sim.run(until=sim.now + 1e-6)
        assert not informer.has_synced
        informer.stop()
        sim.run(until=sim.now + 2.0)
        assert api._watch_streams == []
        assert len(api.store._watches) == 0
        assert not informer.has_synced  # never completed a list

    def test_stop_after_sync_unregisters_stream(self, sim, api, client):
        bootstrap(sim, client)
        informer = SharedInformer(sim, client, "pods")
        informer.start()
        sim.run(until=sim.now + 1.0)
        assert informer.has_synced
        assert len(api._watch_streams) == 1
        informer.stop()
        sim.run(until=sim.now + 1.0)
        assert api._watch_streams == []
        assert len(api.store._watches) == 0

    def test_repeated_crash_relists_do_not_accumulate_streams(self, sim, api,
                                                              client):
        """Reflector relists after each crash; dead streams must be
        deregistered rather than pile up on the server."""
        bootstrap(sim, client)
        informer = SharedInformer(sim, client, "pods")
        informer.start()
        sim.run(until=sim.now + 1.0)
        for _ in range(3):
            api.crash()
            sim.run(until=sim.now + 0.5)
            api.recover()
            sim.run(until=sim.now + 8.0)  # ride out relist backoff
        assert informer.has_synced
        assert len(api._watch_streams) == 1
        assert len(api.store._watches) == 1

    def test_relist_backoff_grows_and_resets(self, sim, api, client):
        from repro.clientgo import Reflector

        class NullDelegate:
            def on_replace(self, objs):
                pass

            def on_event(self, kind, obj):
                pass

        bootstrap(sim, client)
        reflector = Reflector(sim, client, "pods", NullDelegate(),
                              relist_backoff=1.0, max_relist_backoff=8.0,
                              backoff_jitter=0.0)
        reflector._consecutive_failures = 0
        assert reflector.next_backoff() == 1.0
        reflector._consecutive_failures = 2
        assert reflector.next_backoff() == 4.0
        reflector._consecutive_failures = 10
        assert reflector.next_backoff() == 8.0  # capped
        jittered = Reflector(sim, client, "pods", NullDelegate(),
                             relist_backoff=1.0, max_relist_backoff=8.0,
                             backoff_jitter=0.5)
        jittered._consecutive_failures = 1
        delay = jittered.next_backoff()
        assert 2.0 <= delay <= 3.0
