"""Unit tests for the chaos engine, the windows of a scenario file's
fault schedules, the circuit breaker state machine, and the worker
watchdog."""

import itertools
import random
from types import SimpleNamespace

import pytest

from repro.apiserver import ADMIN, APIServer, NotFound
from repro.chaos import (
    FAULTS,
    ApiRequestFault,
    ChaosEngine,
    Fault,
    NetworkPartition,
)
from repro.clientgo import Client
from repro.config import DEFAULT_CONFIG
from repro.core.syncer.health import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    HealthTracker,
)
from repro.objects import make_namespace, make_pod
from repro.objects.base import fast_deep_copy
from repro.scenarios import ScheduleSpec
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation(seed=42)


def run(sim, coroutine):
    return sim.run(until=sim.process(coroutine))


class TestSchedules:
    """``ScheduleSpec.windows`` is the stream the engine walks: the same
    draws in the same order on every run of one chaos seed."""

    def test_one_shot_single_window(self):
        schedule = ScheduleSpec(type="oneshot", at=5.0, duration=2.0)
        assert list(schedule.windows(random.Random(0))) == [(5.0, 2.0)]

    def test_periodic_counts_windows(self):
        schedule = ScheduleSpec(type="periodic", period=3.0, duration=1.0,
                                count=4)
        windows = list(schedule.windows(random.Random(0)))
        assert windows == [(3.0, 1.0)] * 4

    def test_periodic_offset_applies_once(self):
        schedule = ScheduleSpec(type="periodic", period=2.0, count=3,
                                offset=5.0)
        delays = [d for d, _dur in schedule.windows(random.Random(0))]
        assert delays == [7.0, 2.0, 2.0]

    def test_random_windows_deterministic_per_seed(self):
        schedule = ScheduleSpec(type="random", mean_gap=10.0,
                                duration_range=[1.0, 3.0], count=20)
        first = list(schedule.windows(random.Random(7)))
        second = list(schedule.windows(random.Random(7)))
        other = list(schedule.windows(random.Random(8)))
        assert first == second
        assert first != other
        for gap, duration in first:
            assert gap >= 0.1
            assert 1.0 <= duration <= 3.0

    def test_infinite_schedules_are_lazy(self):
        """A random schedule draws a window's two values only when the
        engine asks for that window."""
        schedule = ScheduleSpec(type="random", mean_gap=1.0, count=1000)
        rng, reference = random.Random(3), random.Random(3)
        head = list(itertools.islice(schedule.windows(rng), 2))
        assert len(head) == 2
        for _ in range(2):
            reference.expovariate(1.0)
            reference.uniform(0.5, 3.0)
        assert rng.getstate() == reference.getstate()

    def test_draw_order_is_pinned(self):
        """The exact windows every recorded chaos golden ran under: one
        ``expovariate`` then one ``uniform`` per random window, the gap
        floored at 0.1 s, ``duration_range`` defaulting to [0.5, 3.0],
        and the first periodic window waiting ``period + offset``.  A
        change here moves every chaos golden digest."""
        def windows(rng_seed, **fields):
            return list(ScheduleSpec(**fields).windows(
                random.Random(rng_seed)))

        assert windows(0, type="oneshot", at=5.0, duration=2.0) == [
            (5.0, 2.0)]
        assert windows(0, type="periodic", period=3.0, duration=1.0,
                       count=3, offset=2.0) == [
            (5.0, 1.0), (3.0, 1.0), (3.0, 1.0)]
        assert windows(7, type="random", mean_gap=7.5,
                       duration_range=[1.0, 3.0], count=3) == [
            (2.934861331761032, 1.3016983478490038),
            (7.8937171355319515, 1.1448725733350855),
            (5.757123435163099, 1.731377833825171)]
        assert windows(7, type="random", mean_gap=0.05, count=3) == [
            (0.1, 0.8771229348112548),
            (0.1, 0.6810907166688569),
            (0.1, 1.4142222922814638)]

    def test_spans_accumulate_the_stream(self):
        periodic = ScheduleSpec(type="periodic", period=10.0, duration=2.0,
                                count=3, offset=1.0)
        assert periodic.spans() == [(11.0, 13.0), (23.0, 25.0),
                                    (35.0, 37.0)]
        oneshot = ScheduleSpec(type="oneshot", at=17.0, duration=2.5)
        assert oneshot.spans() == [(17.0, 19.5)]
        assert ScheduleSpec(type="random", mean_gap=1.0,
                            count=2).spans() is None


class FakeSyncer:
    """Just enough syncer surface for a HealthTracker."""

    def __init__(self, sim, client=None):
        self.sim = sim
        self.config = DEFAULT_CONFIG
        self.counters = {}
        self.tenants = {}
        self.requeued = []
        if client is not None:
            self.tenants["t1"] = SimpleNamespace(client=client)

    def metrics_inc(self, counter):
        self.counters[counter] = self.counters.get(counter, 0) + 1

    def spawn(self, coroutine, name=None):
        return self.sim.spawn(coroutine, name=name)

    def enqueue_downward(self, tenant, plural, key):
        self.requeued.append(("downward", tenant, plural, key))

    def enqueue_upward(self, tenant, plural, key):
        self.requeued.append(("upward", tenant, plural, key))


@pytest.fixture
def api(sim):
    return APIServer(sim, "tenant-api")


@pytest.fixture
def tracker(sim, api):
    client = Client(sim, api, ADMIN, user_agent="probe", qps=10000,
                    burst=10000, max_retries=0)
    return HealthTracker(FakeSyncer(sim, client=client))


class TestCircuitBreaker:
    def test_opens_after_consecutive_retryable_failures(self, sim, tracker):
        threshold = tracker.failure_threshold
        for _ in range(threshold - 1):
            assert not tracker.record_failure("t1")
        assert tracker.health("t1").state == STATE_CLOSED
        assert tracker.record_failure("t1")
        assert tracker.health("t1").state == STATE_OPEN
        assert not tracker.allow("t1")
        assert tracker.syncer.counters.get("breaker_open") == 1

    def test_success_resets_consecutive_count(self, tracker):
        for _ in range(tracker.failure_threshold - 1):
            tracker.record_failure("t1")
        tracker.record_success("t1")
        for _ in range(tracker.failure_threshold - 1):
            tracker.record_failure("t1")
        assert tracker.health("t1").state == STATE_CLOSED

    def test_non_retryable_errors_never_trip(self, tracker):
        for _ in range(tracker.failure_threshold * 3):
            parked = tracker.record_failure("t1", NotFound("gone"))
            assert not parked
        assert tracker.health("t1").state == STATE_CLOSED

    def test_disabled_tracker_always_allows(self, sim):
        syncer = FakeSyncer(sim)
        syncer.config = DEFAULT_CONFIG.with_overrides(
            syncer={"circuit_breaker": False})
        tracker = HealthTracker(syncer)
        for _ in range(10):
            tracker.record_failure("t1")
        assert tracker.allow("t1")
        assert tracker.health("t1").state == STATE_CLOSED

    def test_probe_closes_circuit_and_unparks(self, sim, tracker):
        for _ in range(tracker.failure_threshold):
            tracker.record_failure("t1")
        tracker.park("t1", "downward", ("pods", "default/a"))
        tracker.park("t1", "upward", ("pods", "sns/a"))
        assert tracker.parked_count("t1") == 2
        # The probe target (the fake tenant apiserver) is healthy, so the
        # first half-open probe succeeds within ~open_duration * 1.25.
        sim.run(until=sim.now + tracker.base_open_duration * 1.5)
        assert tracker.health("t1").state == STATE_CLOSED
        assert tracker.parked_count("t1") == 0
        assert set(tracker.syncer.requeued) == {
            ("downward", "t1", "pods", "default/a"),
            ("upward", "t1", "pods", "sns/a"),
        }

    def test_probe_failure_reopens_with_longer_cooldown(self, sim, api,
                                                        tracker):
        api.crash()
        for _ in range(tracker.failure_threshold):
            tracker.record_failure("t1")
        first_duration = tracker.health("t1").open_duration
        sim.run(until=sim.now + first_duration * 2)
        entry = tracker.health("t1")
        assert entry.state == STATE_OPEN
        assert entry.probes_total >= 1
        assert entry.open_duration == min(first_duration * 2,
                                          tracker.max_open_duration)
        api.recover()
        sim.run(until=sim.now + tracker.max_open_duration)
        assert tracker.health("t1").state == STATE_CLOSED
        assert tracker.time_degraded("t1") > 0

    def test_half_open_state_visible_during_probe(self, sim, api, tracker):
        """The probe marks half-open before the request resolves."""
        seen = []
        original = api.list

        def spying_list(credential, plural, **kwargs):
            seen.append(tracker.health("t1").state)
            return (yield from original(credential, plural, **kwargs))

        api.list = spying_list
        for _ in range(tracker.failure_threshold):
            tracker.record_failure("t1")
        sim.run(until=sim.now + tracker.base_open_duration * 1.5)
        assert STATE_HALF_OPEN in seen
        assert tracker.health("t1").state == STATE_CLOSED

    def test_drop_tenant_forgets_state_and_parked(self, sim, tracker):
        for _ in range(tracker.failure_threshold):
            tracker.record_failure("t1")
        tracker.park("t1", "downward", ("pods", "default/a"))
        tracker.drop_tenant("t1")
        assert tracker.parked_count() == 0
        assert tracker.health("t1").state == STATE_CLOSED  # fresh entry


class TestFaultUnits:
    def test_api_request_fault_per_verb(self, sim, api):
        from repro.apiserver import ServerUnavailable

        client = Client(sim, api, ADMIN, user_agent="t", qps=10000,
                        burst=10000, max_retries=0)
        run(sim, client.create(make_namespace("default")))
        fault = ApiRequestFault(api, verbs=("create",))
        fault.bind(sim, random.Random(0))
        fault.inject()
        with pytest.raises(ServerUnavailable):
            run(sim, client.create(make_pod("p")))
        # Unmatched verbs pass through while the fault is active.
        pods, _rev = run(sim, client.list("pods"))
        assert pods == []
        fault.restore()
        run(sim, client.create(make_pod("p")))
        assert fault.errors_injected == 1
        assert api.fault_injector is None

    def test_network_partition_blocks_one_client_only(self, sim, api):
        from repro.apiserver import ServerUnavailable

        cut = Client(sim, api, ADMIN, user_agent="cut", qps=10000,
                     burst=10000, max_retries=0)
        healthy = Client(sim, api, ADMIN, user_agent="ok", qps=10000,
                         burst=10000, max_retries=0)
        run(sim, healthy.create(make_namespace("default")))
        stream = cut.watch("pods")
        fault = NetworkPartition(cut)
        fault.bind(sim, random.Random(0))
        fault.inject()
        assert stream.closed  # established stream died with the link
        with pytest.raises(ServerUnavailable):
            run(sim, cut.list("pods"))
        pods, _rev = run(sim, healthy.list("pods"))
        assert pods == []
        fault.restore()
        pods, _rev = run(sim, cut.list("pods"))
        assert pods == []
        assert fault.requests_blocked == 1

    def test_fault_table_lists_every_fault_class_once(self):
        """`FAULTS` is the only enumeration of faults: a new subclass
        that is not schedulable from a scenario file fails here."""
        listed = [kind.cls for kind in FAULTS.values()]
        assert sorted(c.__name__ for c in listed) == sorted(
            c.__name__ for c in Fault.__subclasses__())
        assert len(set(listed)) == len(listed)
        for name, kind in FAULTS.items():
            assert set(kind.targets) <= {"tenant", "super", "syncer"}, name

    def test_every_fault_states_its_own_counters(self):
        for cls in Fault.__subclasses__():
            assert "counters" in vars(cls), (
                f"{cls.__name__} must define counters() (return {{}} when "
                f"`injections` says it all)")

    def test_report_carries_each_faults_counters(self, sim, api):
        client = Client(sim, api, ADMIN, user_agent="t", qps=10000,
                        burst=10000, max_retries=0)
        run(sim, client.create(make_namespace("default")))
        engine = ChaosEngine(SimpleNamespace(sim=sim), seed=1)
        window = ScheduleSpec(type="oneshot", at=1.0, duration=2.0)
        engine.add(window,
                   ApiRequestFault(api, verbs=("create",), name="flaky"))
        engine.add(window, NetworkPartition(client, name="cut"))
        engine.start()
        sim.run(until=sim.now + 1.5)
        with pytest.raises(Exception):
            run(sim, client.list("pods"))
        sim.run(until=sim.now + 5.0)
        flaky, cut = engine.report()["faults"]
        assert flaky == {"fault": "flaky",
                         "schedule": {"type": "oneshot", "at": 1.0,
                                      "duration": 2.0},
                         "injections": 1, "errors_injected": 0,
                         "latency_injected": 0}
        assert cut["injections"] == 1 and cut["requests_blocked"] == 1


class TestWatchdog:
    @pytest.fixture
    def syncer(self, sim):
        from repro.core.controlplane import SuperCluster
        from repro.core.syncer.syncer import Syncer

        super_cluster = SuperCluster(sim, DEFAULT_CONFIG)
        super_cluster.start()
        syncer = Syncer(sim, super_cluster, DEFAULT_CONFIG.with_overrides(
            syncer={"dws_workers": 2, "uws_workers": 1}))
        syncer.start()
        sim.run(until=sim.now + 1.0)
        return syncer

    def test_workers_spawn_under_watchdog(self, sim, syncer):
        assert len(syncer.worker_processes) == 3
        assert all(p.is_alive for p in syncer.worker_processes.values())

    def test_crashed_worker_is_respawned(self, sim, syncer):
        label = sorted(syncer.worker_processes)[0]
        victim = syncer.worker_processes[label]
        victim.interrupt("chaos kill")
        cfg = syncer.config.syncer
        sim.run(until=sim.now + cfg.watchdog_base_backoff * 2)
        respawned = syncer.worker_processes.get(label)
        assert respawned is not None and respawned is not victim
        assert respawned.is_alive
        assert syncer.worker_restarts[label] == 1
        assert syncer.counters.get("worker_restarts") == 1

    def test_crash_loop_backoff_grows(self, sim, syncer):
        label = sorted(syncer.worker_processes)[0]
        cfg = syncer.config.syncer
        gaps = []
        for _ in range(4):
            victim = syncer.worker_processes[label]
            died_at = sim.now
            victim.interrupt("chaos kill")
            sim.run(until=sim.now + cfg.watchdog_max_backoff)
            # Time until the replacement appeared.
            assert syncer.worker_processes[label] is not victim
            gaps.append(sim.now - died_at)
        assert syncer.worker_restarts[label] == 4

    def test_stop_halts_respawning(self, sim, syncer):
        syncer.stop()
        sim.run(until=sim.now + 5.0)
        assert syncer.worker_processes == {}
        alive = [p for p in syncer.worker_processes.values() if p.is_alive]
        assert alive == []

    def test_restart_counts_surface_in_stats(self, sim, syncer):
        label = sorted(syncer.worker_processes)[0]
        syncer.worker_processes[label].interrupt("chaos kill")
        sim.run(until=sim.now + 2.0)
        stats = syncer.stats()
        assert stats["worker_restarts"].get(label) == 1
        assert "health" in stats


class TestConvergenceCheck:
    """``check_convergence`` reads stored dicts in place; it must judge
    every state exactly as decoding each Pod would."""

    @staticmethod
    def _decoded_reference(env):
        from repro.core.crd import super_namespace
        from repro.core.syncer.conversion import tenant_origin
        from repro.objects import Pod

        def pods(api):
            raw, _revision = api.store.list_prefix("/registry/pods/")
            return [Pod.from_dict(value) for _key, value, _rev in raw]

        missing, orphaned, live = [], [], {}
        super_pods = {pod.key: pod for pod in pods(env.super_cluster.api)}
        for key, handle in sorted(env.tenants.items()):
            live[key] = set()
            for pod in pods(handle.control_plane.api):
                if pod.metadata.deletion_timestamp is not None:
                    continue
                live[key].add((pod.metadata.namespace, pod.metadata.name))
                sname = super_namespace(handle.vc, pod.metadata.namespace)
                twin = super_pods.get(f"{sname}/{pod.metadata.name}")
                if twin is None:
                    missing.append((key, pod.key, "no super pod"))
                elif twin.status.is_ready != pod.status.is_ready:
                    missing.append((key, pod.key, "readiness mismatch"))
        for pod in super_pods.values():
            origin = tenant_origin(pod)
            if (origin is None or origin[0] not in live
                    or pod.metadata.deletion_timestamp is not None):
                continue
            if origin[1:] not in live[origin[0]]:
                orphaned.append((origin[0], pod.key))
        return missing, orphaned

    def test_matches_decoding_on_a_diverged_state(self):
        from repro.chaos.engine import check_convergence
        from repro.core import VirtualClusterEnv

        env = VirtualClusterEnv(seed=5, num_virtual_nodes=2)
        env.bootstrap()
        tenant = env.run_coroutine(env.create_tenant("acme"))
        names = [f"web-{index}" for index in range(5)]
        for name in names:
            env.run_coroutine(tenant.create_pod(name))
        env.run_until_pods_ready(tenant, [f"default/{name}"
                                          for name in names], timeout=60.0)
        env.run_until(lambda: check_convergence(env)[0], timeout=60.0)

        tenant_store = tenant.control_plane.api.store
        super_store = env.super_cluster.api.store
        super_keys = {}
        for key, value, _rev in super_store.list_prefix("/registry/pods/")[0]:
            annotations = value["metadata"].get("annotations") or {}
            name = annotations.get("tenancy.x-k8s.io/tenant-name")
            if name:
                super_keys[name] = key
        # A missing Pod: only the tenant has it.
        ghost = make_pod("ghost").to_dict()
        tenant_store.create("/registry/pods/default/ghost", ghost)
        # A readiness mismatch: the super Pod stops being Ready.
        value = fast_deep_copy(super_store.get(super_keys["web-0"])[0])
        value["status"]["conditions"] = [{"type": "Ready",
                                          "status": "False"}]
        super_store.update(super_keys["web-0"], value)
        # An orphan: the tenant Pod is gone, its super Pod is not.
        tenant_store.delete("/registry/pods/default/web-1")
        # Pods being deleted: a tenant one and, on its own, a super one.
        for store, key in ((tenant_store, "/registry/pods/default/web-2"),
                           (tenant_store, "/registry/pods/default/web-3"),
                           (super_store, super_keys["web-3"])):
            value = fast_deep_copy(store.get(key)[0])
            value["metadata"]["deletionTimestamp"] = env.sim.now
            store.update(key, value)

        ok, detail = check_convergence(env)
        missing, orphaned = self._decoded_reference(env)
        assert not ok
        assert (detail["missing"], detail["orphaned"]) == (missing, orphaned)
        assert sorted(why for _t, _key, why in missing) == [
            "no super pod", "readiness mismatch"]
        # web-1 is gone and web-2 is being deleted; web-3's super twin is
        # being deleted too, so it claims nothing.
        assert sorted(key.rpartition("-")[2] for _t, key in orphaned) == [
            "1", "2"]
