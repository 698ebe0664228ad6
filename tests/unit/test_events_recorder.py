"""Unit tests for the event recorder."""

import pytest

from repro.apiserver import ADMIN, APIServer
from repro.clientgo import Client
from repro.clientgo.events import EventRecorder
from repro.objects import make_namespace, make_pod
from repro.simkernel import Simulation


@pytest.fixture
def setup():
    sim = Simulation()
    api = APIServer(sim, "api")
    client = Client(sim, api, ADMIN, qps=100000, burst=100000)
    sim.run(until=sim.process(client.create(make_namespace("default"))))
    recorder = EventRecorder(sim, client, "test-component")
    return sim, api, client, recorder


def list_events(sim, client):
    def fetch():
        items, _rv = yield from client.list("events", namespace="default")
        return items

    return sim.run(until=sim.process(fetch()))


class TestEventRecorder:
    def test_event_created_with_reference(self, setup):
        sim, _api, client, recorder = setup
        pod = make_pod("p")
        pod.metadata.uid = "uid-p"
        recorder.event(pod, "Started", "Container started")
        sim.run(until=sim.now + 1)
        events = list_events(sim, client)
        assert len(events) == 1
        event = events[0]
        assert event.reason == "Started"
        assert event.involved_object.name == "p"
        assert event.involved_object.kind == "Pod"
        assert event.source["component"] == "test-component"
        assert event.count == 1

    def test_repeat_events_aggregate(self, setup):
        sim, _api, client, recorder = setup
        pod = make_pod("p")
        pod.metadata.uid = "uid-p"
        for _ in range(4):
            recorder.event(pod, "BackOff", "restarting")
            sim.run(until=sim.now + 0.5)
        events = list_events(sim, client)
        backoffs = [e for e in events if e.reason == "BackOff"]
        assert len(backoffs) == 1
        assert backoffs[0].count == 4

    def test_different_reasons_distinct_events(self, setup):
        sim, _api, client, recorder = setup
        pod = make_pod("p")
        pod.metadata.uid = "uid-p"
        recorder.event(pod, "Pulled", "image pulled")
        recorder.event(pod, "Started", "container started")
        sim.run(until=sim.now + 1)
        events = list_events(sim, client)
        assert {e.reason for e in events} == {"Pulled", "Started"}

    def test_warning_type(self, setup):
        sim, _api, client, recorder = setup
        pod = make_pod("p")
        recorder.event(pod, "Failed", "boom", event_type="Warning")
        sim.run(until=sim.now + 1)
        events = list_events(sim, client)
        assert events[0].type == "Warning"

    def test_recorder_survives_api_errors(self, setup):
        sim, api, _client, recorder = setup
        api.crash()
        pod = make_pod("p")
        recorder.event(pod, "Started", "msg")
        sim.run(until=sim.now + 2)
        assert recorder.dropped >= 1
        api.recover()

