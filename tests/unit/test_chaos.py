"""Unit tests for the chaos engine, fault schedules, the circuit
breaker state machine, and the worker watchdog."""

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
    OneShot,
    Periodic,
    RandomWindows,
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
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation(seed=42)


def run(sim, coroutine):
    return sim.run(until=sim.process(coroutine))


class TestSchedules:
    def test_one_shot_single_window(self):
        windows = list(OneShot(5.0, duration=2.0).windows(random.Random(0)))
        assert windows == [(5.0, 2.0)]

    def test_periodic_counts_windows(self):
        schedule = Periodic(period=3.0, duration=1.0, count=4)
        windows = list(schedule.windows(random.Random(0)))
        assert windows == [(3.0, 1.0)] * 4

    def test_periodic_offset_applies_once(self):
        schedule = Periodic(period=2.0, count=3, offset=5.0)
        delays = [d for d, _dur in schedule.windows(random.Random(0))]
        assert delays == [7.0, 2.0, 2.0]

    def test_random_windows_deterministic_per_seed(self):
        schedule = RandomWindows(mean_gap=10.0, duration_range=(1.0, 3.0),
                                 count=20)
        first = list(schedule.windows(random.Random(7)))
        second = list(schedule.windows(random.Random(7)))
        other = list(schedule.windows(random.Random(8)))
        assert first == second
        assert first != other
        for gap, duration in first:
            assert gap >= 0.1
            assert 1.0 <= duration <= 3.0

    def test_infinite_schedules_are_lazy(self):
        schedule = Periodic(period=1.0)  # count=None: endless
        head = list(itertools.islice(schedule.windows(random.Random(0)), 5))
        assert len(head) == 5

    def test_describe_strings(self):
        assert "one-shot" in OneShot(1.0).describe()
        assert "periodic" in Periodic(5.0, count=2).describe()
        assert "random" in RandomWindows(10.0).describe()


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
        assert tracker.state("t1") == STATE_CLOSED
        assert tracker.record_failure("t1")
        assert tracker.state("t1") == STATE_OPEN
        assert not tracker.allow("t1")
        assert tracker.syncer.counters.get("breaker_open") == 1

    def test_success_resets_consecutive_count(self, tracker):
        for _ in range(tracker.failure_threshold - 1):
            tracker.record_failure("t1")
        tracker.record_success("t1")
        for _ in range(tracker.failure_threshold - 1):
            tracker.record_failure("t1")
        assert tracker.state("t1") == STATE_CLOSED

    def test_non_retryable_errors_never_trip(self, tracker):
        for _ in range(tracker.failure_threshold * 3):
            parked = tracker.record_failure("t1", NotFound("gone"))
            assert not parked
        assert tracker.state("t1") == STATE_CLOSED

    def test_disabled_tracker_always_allows(self, sim):
        tracker = HealthTracker(FakeSyncer(sim), enabled=False)
        for _ in range(10):
            tracker.record_failure("t1")
        assert tracker.allow("t1")
        assert tracker.state("t1") == STATE_CLOSED

    def test_probe_closes_circuit_and_unparks(self, sim, tracker):
        for _ in range(tracker.failure_threshold):
            tracker.record_failure("t1")
        tracker.park("t1", "downward", ("pods", "default/a"))
        tracker.park("t1", "upward", ("pods", "sns/a"))
        assert tracker.parked_count("t1") == 2
        # The probe target (the fake tenant apiserver) is healthy, so the
        # first half-open probe succeeds within ~open_duration * 1.25.
        sim.run(until=sim.now + tracker.base_open_duration * 1.5)
        assert tracker.state("t1") == STATE_CLOSED
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
        assert tracker.state("t1") == STATE_CLOSED
        assert tracker.time_degraded("t1") > 0

    def test_half_open_state_visible_during_probe(self, sim, api, tracker):
        """The probe marks half-open before the request resolves."""
        seen = []
        original = api.list

        def spying_list(credential, plural, **kwargs):
            seen.append(tracker.state("t1"))
            return (yield from original(credential, plural, **kwargs))

        api.list = spying_list
        for _ in range(tracker.failure_threshold):
            tracker.record_failure("t1")
        sim.run(until=sim.now + tracker.base_open_duration * 1.5)
        assert STATE_HALF_OPEN in seen
        assert tracker.state("t1") == STATE_CLOSED

    def test_drop_tenant_forgets_state_and_parked(self, sim, tracker):
        for _ in range(tracker.failure_threshold):
            tracker.record_failure("t1")
        tracker.park("t1", "downward", ("pods", "default/a"))
        tracker.drop_tenant("t1")
        assert tracker.parked_count() == 0
        assert tracker.state("t1") == STATE_CLOSED  # fresh entry


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
        with pytest.raises(NotImplementedError):
            Fault().counters()

    def test_report_carries_each_faults_counters(self, sim, api):
        client = Client(sim, api, ADMIN, user_agent="t", qps=10000,
                        burst=10000, max_retries=0)
        run(sim, client.create(make_namespace("default")))
        engine = ChaosEngine(SimpleNamespace(sim=sim), seed=1)
        engine.add(OneShot(1.0, duration=2.0),
                   ApiRequestFault(api, verbs=("create",), name="flaky"))
        engine.add(OneShot(1.0, duration=2.0),
                   NetworkPartition(client, name="cut"))
        engine.start()
        sim.run(until=sim.now + 1.5)
        with pytest.raises(Exception):
            run(sim, client.list("pods"))
        sim.run(until=sim.now + 5.0)
        flaky, cut = engine.report()["faults"]
        assert flaky == {"fault": "flaky", "schedule": "one-shot@1s/2s",
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
        syncer = Syncer(sim, super_cluster, dws_workers=2, uws_workers=1)
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
