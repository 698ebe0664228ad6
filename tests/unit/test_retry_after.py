"""Retry-After is honored end-to-end in the clientgo stack (§15).

When APF sheds a request it attaches a pressure-scaled ``retry_after``
hint to the 429.  Each clientgo layer must prefer that hint (plus its
own one-sided jitter) over its local exponential schedule: the raw
:class:`Client` retry loop, the :class:`Reflector` relist backoff, and
the :class:`RateLimitingQueue` used by every controller.
"""

import pytest

from repro.apiserver.auth import Credential
from repro.apiserver.errors import ServerUnavailable, TooManyRequests
from repro.clientgo import RateLimitingQueue, Reflector
from repro.clientgo.client import Client
from repro.simkernel import Simulation

pytestmark = pytest.mark.apf


class sheddingApi:
    """Stub apiserver: sheds the first ``shed`` calls with Retry-After."""

    name = "stub"

    def __init__(self, shed=1, retry_after=1.0):
        self.shed = shed
        self.retry_after = retry_after
        self.attempt_times = []

    def list(self, credential, plural, namespace=None, label_selector=None,
             field_selector=None):
        self.attempt_times.append(self.sim.now)
        if len(self.attempt_times) <= self.shed:
            raise TooManyRequests("shed", retry_after=self.retry_after)
        return [], "1"
        yield  # pragma: no cover - makes this a generator coroutine


class TestClientHonorsRetryAfter:
    def run_list(self, api, **kwargs):
        sim = Simulation(seed=7)
        api.sim = sim
        client = Client(sim, api, Credential("tenant-x"), **kwargs)
        sim.run(until=sim.process(client.list("pods")))
        return sim, api.attempt_times

    def test_hint_overrides_exponential_schedule(self):
        api = sheddingApi(shed=1, retry_after=1.0)
        _sim, attempts = self.run_list(api)
        assert len(attempts) == 2
        gap = attempts[1] - attempts[0]
        # hint * (1 + 0.5*U): never earlier than the server asked,
        # never more than 50% later — and far above the 0.1s first-try
        # exponential backoff it replaces.
        assert 1.0 <= gap <= 1.5

    def test_without_hint_exponential_schedule_applies(self):
        class FlakyApi(sheddingApi):
            def list(self, credential, plural, **kwargs):
                self.attempt_times.append(self.sim.now)
                if len(self.attempt_times) <= self.shed:
                    raise ServerUnavailable("boom")
                return [], "1"
                yield  # pragma: no cover

        api = FlakyApi(shed=1)
        _sim, attempts = self.run_list(api)
        gap = attempts[1] - attempts[0]
        assert gap == pytest.approx(0.1)

    def test_shed_past_retry_budget_raises(self):
        api = sheddingApi(shed=100, retry_after=0.01)
        sim = Simulation(seed=7)
        api.sim = sim
        client = Client(sim, api, Credential("tenant-x"), max_retries=2)

        def proc():
            try:
                yield from client.list("pods")
            except TooManyRequests:
                return "shed"

        assert sim.run(until=sim.process(proc())) == "shed"
        assert len(api.attempt_times) == 3  # initial + 2 retries


class TestReflectorHonorsRetryAfter:
    def make_reflector(self):
        sim = Simulation(seed=7)
        reflector = Reflector(sim, client=None, plural="pods",
                              delegate=None)
        return sim, reflector

    def test_hint_consumed_once(self):
        _sim, reflector = self.make_reflector()
        reflector._consecutive_failures = 6
        reflector._retry_after_hint = 2.0
        first = reflector.next_backoff()
        # 2.0 * (1 + 0.5*U): the server's pressure signal, jittered.
        assert 2.0 <= first <= 3.0
        # Consumed: the next delay falls back to the failure schedule.
        second = reflector.next_backoff()
        assert reflector._retry_after_hint is None
        assert second != first or second <= reflector.max_relist_backoff

    def test_relist_loop_stores_hint_from_429(self):
        sim = Simulation(seed=7)

        class shedClient:
            calls = 0

            def list(self, plural, namespace=None, label_selector=None,
                     field_selector=None):
                shedClient.calls += 1
                raise TooManyRequests("shed", retry_after=4.0)
                yield  # pragma: no cover

        class Delegate:
            def on_replace(self, objs):
                pass

            def on_event(self, kind, obj):
                pass

        reflector = Reflector(sim, shedClient(), "pods", Delegate())
        reflector.start()
        sim.run(until=sim.now + 1.0)
        reflector.stop()
        # One failed list, then the loop slept on the server's 4s hint
        # (jittered up to 6s) — so no second attempt fit inside 1s,
        # where the default 1s exponential backoff would have retried.
        assert shedClient.calls == 1
        assert reflector.watch_failures == 1

    def test_error_without_hint_leaves_schedule_untouched(self):
        _sim, reflector = self.make_reflector()
        reflector._consecutive_failures = 1
        delay = reflector.next_backoff()
        assert delay <= reflector.max_relist_backoff


class _UnjitteredQueue(RateLimitingQueue):
    jitter = 0.0


class TestWorkqueueHonorsRetryAfter:
    def dispatch_time(self, queue, sim, item):
        out = []

        def worker():
            got, _queued_at = yield queue.get()
            out.append((got, sim.now))
            queue.done(got)

        sim.spawn(worker(), name="worker")
        sim.run(until=sim.now + 30.0)
        return out[0][1] if out else None

    def test_retry_after_overrides_backoff(self):
        sim = Simulation(seed=7)
        queue = RateLimitingQueue(sim)
        queue.add_rate_limited("key", retry_after=5.0)
        when = self.dispatch_time(queue, sim, "key")
        # 5s hint with one-sided 10% jitter — not the 5ms first backoff.
        assert 5.0 <= when <= 5.5

    def test_failure_streak_still_advances(self):
        sim = Simulation(seed=7)
        queue = RateLimitingQueue(sim)
        queue.add_rate_limited("key", retry_after=0.1)
        assert queue._failures["key"] == 1
        queue.add_rate_limited("key", retry_after=0.1)
        assert queue._failures["key"] == 2

    def test_without_hint_exponential_backoff(self):
        sim = Simulation(seed=7)
        queue = _UnjitteredQueue(sim)
        queue.add_rate_limited("key")
        when = self.dispatch_time(queue, sim, "key")
        assert when == pytest.approx(0.005)
