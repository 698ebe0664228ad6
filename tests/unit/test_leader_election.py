"""Unit tests for the Lease object, JitteredBackoff, and LeaderElector."""

import pytest

from repro.apiserver import ADMIN, APIServer
from repro.clientgo import (
    Client,
    JitteredBackoff,
    LEASE_NAMESPACE,
    LeaderElector,
)
from repro.objects import Lease, make_namespace
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation(seed=11)


@pytest.fixture
def api(sim):
    api = APIServer(sim, "test-api")
    sim.run(until=sim.process(
        api.create(ADMIN, make_namespace(LEASE_NAMESPACE))))
    return api


def make_elector(sim, api, identity, **kwargs):
    client = Client(sim, api, ADMIN, user_agent=f"elector-{identity}",
                    qps=10_000, burst=20_000)
    kwargs.setdefault("lease_duration", 6.0)
    kwargs.setdefault("renew_interval", 2.0)
    kwargs.setdefault("retry_interval", 0.5)
    return LeaderElector(sim, client, "test-lease", identity, **kwargs)


class TestJitteredBackoff:
    def test_doubles_and_caps(self):
        backoff = JitteredBackoff(Simulation(seed=1).rng, 1.0, 8.0,
                                  jitter=0.0)
        assert [backoff.delay(i) for i in range(5)] == [1, 2, 4, 8, 8]

    def test_jitter_is_one_sided(self):
        rng = Simulation(seed=2).rng
        backoff = JitteredBackoff(rng, 1.0, 60.0, jitter=0.5)
        for failures in range(6):
            base = min(2.0 ** failures, 60.0)
            delay = backoff.delay(failures)
            assert base <= delay <= base * 1.5

    def test_stateful_next_and_reset(self):
        backoff = JitteredBackoff(Simulation(seed=3).rng, 1.0, 8.0,
                                  jitter=0.0)
        assert backoff.next() == 1.0
        assert backoff.next() == 2.0
        backoff.reset()
        assert backoff.next() == 1.0


class TestLeaderElector:
    def test_first_elector_acquires(self, sim, api):
        tokens = []
        elector = make_elector(sim, api, "a", on_started_leading=tokens.append)
        elector.start()
        sim.run(until=5.0)
        assert elector.is_leader
        assert tokens == [1]
        assert elector.acquisitions == 1

    def test_standby_does_not_steal_live_lease(self, sim, api):
        a = make_elector(sim, api, "a")
        b = make_elector(sim, api, "b")
        a.start()
        sim.run(until=2.0)
        b.start()
        sim.run(until=60.0)
        assert a.is_leader
        assert not b.is_leader
        assert b.acquisitions == 0

    def test_crash_failover_after_expiry(self, sim, api):
        tokens = []
        a = make_elector(sim, api, "a", on_started_leading=tokens.append)
        b = make_elector(sim, api, "b", on_started_leading=tokens.append)
        a.start()
        b.start()
        sim.run(until=5.0)
        leader, standby = (a, b) if a.is_leader else (b, a)
        crash_at = sim.now
        leader.crash()
        sim.run(until=crash_at + 30.0)
        assert standby.is_leader
        # The standby could only win after the lease provably lapsed.
        assert tokens == [1, 2]
        assert standby.sim.now >= crash_at + leader.lease_duration - 0.01

    def test_graceful_release_allows_fast_takeover(self, sim, api):
        a = make_elector(sim, api, "a")
        b = make_elector(sim, api, "b")
        a.start()
        b.start()
        sim.run(until=5.0)
        leader, standby = (a, b) if a.is_leader else (b, a)
        release_at = sim.now
        leader.stop(release=True)
        sim.run(until=release_at + 3.0)
        # Released lease (holder cleared) is immediately expired.
        assert standby.is_leader
        assert sim.now - release_at < leader.lease_duration

    def test_fencing_tokens_increase_per_term(self, sim, api):
        tokens = []
        a = make_elector(sim, api, "a", on_started_leading=tokens.append)
        a.start()
        sim.run(until=5.0)
        a.crash()
        sim.run(until=30.0)
        b = make_elector(sim, api, "b", on_started_leading=tokens.append)
        b.start()
        sim.run(until=60.0)
        assert len(tokens) == 2 and tokens[1] > tokens[0]

    def test_callbacks_fire(self, sim, api):
        events = []
        a = make_elector(
            sim, api, "a",
            on_started_leading=lambda token: events.append(("up", token)),
            on_stopped_leading=lambda reason: events.append(("down", reason)))
        b = make_elector(sim, api, "b")
        a.start()
        sim.run(until=5.0)
        assert events == [("up", 1)]
        a.partition(notice_delay=0.0)
        b.start()
        sim.run(until=60.0)
        assert events[-1][0] == "down"
        assert b.is_leader

    def test_partition_window_never_overlaps_leadership(self, sim, api):
        a = make_elector(sim, api, "a")
        b = make_elector(sim, api, "b")
        a.start()
        sim.run(until=5.0)
        a.partition(notice_delay=2.0)
        b.start()
        overlaps = []

        def monitor():
            while sim.now < 60.0:
                if a.is_leader and b.is_leader:
                    overlaps.append(sim.now)
                yield sim.timeout(0.05)

        sim.spawn(monitor(), name="monitor")
        sim.run(until=60.0)
        assert not overlaps
        assert b.is_leader
        assert a.losses == 1  # noticed after the delay

    def test_renew_interval_must_undercut_duration(self, sim, api):
        with pytest.raises(ValueError):
            make_elector(sim, api, "a", lease_duration=2.0,
                         renew_interval=2.0)

    def test_lease_object_expiry(self):
        lease = Lease()
        assert lease.spec.expired(0.0)  # never held
        lease.spec.holder_identity = "a"
        lease.spec.renew_time = 10.0
        lease.spec.lease_duration_seconds = 5.0
        assert not lease.spec.expired(14.9)
        assert lease.spec.expired(15.0)
