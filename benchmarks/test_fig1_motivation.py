"""Figure 1 (motivation): the impact of sharing one control plane.

The paper's motivating scenario: "a buggy or overwhelming tenant can
completely crowd out others by issuing many queries against a large
number of resources.  For instance, tenants may frequently query all
Pods in their namespace, making the requests from other tenants
significantly delayed."

This benchmark quantifies three worlds:

1. **shared** — both tenants use one apiserver (the Fig. 1 problem);
2. **shared + APF** — the upstream priority-and-fairness mitigation the
   paper cites (per-user fair queuing in front of the same seats);
3. **VirtualCluster** — dedicated tenant control planes: the victim's
   latency is unaffected no matter what the aggressor does.

Both shared arms are a super cluster's apiserver shaped only through
:class:`~repro.config.ApfConfig`: one ``standard`` level of 24 seats
(a modest concurrency ceiling makes interference visible, like a
production apiserver under memory pressure), with queues that never
shed.  "shared" deals every request to one FIFO queue; "shared + APF"
deals each user its own queue, so seats freed while both tenants wait
alternate between them.
"""

from dataclasses import replace

from repro.apiserver import ADMIN, APIServer, Credential
from repro.clientgo import Client
from repro.config import DEFAULT_CONFIG, ApfTier
from repro.core.controlplane import SuperCluster
from repro.metrics import format_table
from repro.objects import make_namespace, make_pod
from repro.simkernel import Simulation

from benchmarks.conftest import once

HEAVY_OBJECTS = 500      # pods the aggressor repeatedly lists
AGGRESSOR_STREAMS = 48   # concurrent list loops
VICTIM_PROBES = 40       # victim request count to sample latency
STORM_SECONDS = 10.0

# Expensive LISTs (large objects, no pagination): 0.5 ms/item makes one
# full list occupy an apiserver slot for ~250 ms, as the paper's
# "queries against a large number of resources" scenario intends.
_HEAVY_LIST_CONFIG = DEFAULT_CONFIG.with_overrides(
    apiserver=replace(DEFAULT_CONFIG.apiserver, list_per_item=0.0005))


def _shared_config(queues):
    """24 seats in one level; ``queues`` 1 is a single FIFO, 64 gives
    each user its own queue (hand size 1)."""
    level = ApfTier("standard", shares=1, queues=queues, hand_size=1,
                    queue_limit=1000, queue_wait=600.0)
    return _HEAVY_LIST_CONFIG.with_overrides(
        apf={"enabled": True, "total_seats": 24, "tiers": (level,)})


def _populate(sim, client, namespace, count):
    def fill():
        yield from client.create(make_namespace(namespace))
        for index in range(count):
            yield from client.create(
                make_pod(f"bulk-{index:05d}", namespace=namespace))

    sim.run(until=sim.process(fill()))


def _victim_latencies(sim, client, namespace):
    latencies = []

    def probe():
        for _ in range(VICTIM_PROBES):
            start = sim.now
            yield from client.get("pods", "bulk-00000",
                                  namespace=namespace)
            latencies.append(sim.now - start)
            yield sim.timeout(0.05)

    process = sim.process(probe())
    sim.run(until=process)
    return latencies


def _aggress(sim, client, namespace, duration=STORM_SECONDS):
    def storm():
        while sim.now < duration:
            try:
                yield from client.list("pods", namespace=namespace)
            except Exception:
                yield sim.timeout(0.01)

    for _ in range(AGGRESSOR_STREAMS):
        sim.process(storm())


def _run_shared(queues):
    sim = Simulation()
    api = SuperCluster(sim, _shared_config(queues)).api
    aggressor = api.authenticator.register(Credential("aggressor"))
    victim = api.authenticator.register(Credential("victim"))
    admin_client = Client(sim, api, ADMIN, qps=1e6, burst=1e6)
    _populate(sim, admin_client, "aggressor-ns", HEAVY_OBJECTS)

    victim_client = Client(sim, api, victim, qps=1e6, burst=1e6,
                           user_agent="victim")

    def setup_victim():
        yield from victim_client.create(make_namespace("victim-ns"))
        yield from victim_client.create(make_pod("bulk-00000",
                                                 namespace="victim-ns"))

    sim.run(until=sim.process(setup_victim()))

    aggressor_client = Client(sim, api, aggressor, qps=1e6, burst=1e6,
                              user_agent="aggressor")
    _aggress(sim, aggressor_client, "aggressor-ns")
    return _victim_latencies(sim, victim_client, "victim-ns")


def _run_virtualcluster():
    """Each tenant has its own apiserver; the aggressor floods its own."""
    sim = Simulation()
    aggressor_api = APIServer(sim, "aggressor-cp",
                              config=_HEAVY_LIST_CONFIG)
    victim_api = APIServer(sim, "victim-cp", config=_HEAVY_LIST_CONFIG)

    aggressor_client = Client(sim, aggressor_api, ADMIN, qps=1e6,
                              burst=1e6)
    _populate(sim, aggressor_client, "aggressor-ns", HEAVY_OBJECTS)

    victim_client = Client(sim, victim_api, ADMIN, qps=1e6, burst=1e6)

    def setup_victim():
        yield from victim_client.create(make_namespace("victim-ns"))
        yield from victim_client.create(make_pod("bulk-00000",
                                                 namespace="victim-ns"))

    sim.run(until=sim.process(setup_victim()))
    _aggress(sim, aggressor_client, "aggressor-ns")
    return _victim_latencies(sim, victim_client, "victim-ns")


def _p99(latencies):
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1,
                       round(0.99 * (len(ordered) - 1)))]


def test_fig1_shared_control_plane_interference(benchmark):
    def run():
        shared = _run_shared(queues=1)
        with_apf = _run_shared(queues=64)
        virtual_cluster = _run_virtualcluster()
        return shared, with_apf, virtual_cluster

    shared, with_apf, vc = once(benchmark, run)
    rows = [
        ("shared apiserver", 1000 * sum(shared) / len(shared),
         1000 * _p99(shared)),
        ("shared + APF", 1000 * sum(with_apf) / len(with_apf),
         1000 * _p99(with_apf)),
        ("VirtualCluster", 1000 * sum(vc) / len(vc), 1000 * _p99(vc)),
    ]
    print()
    print(format_table(
        ["victim's control plane", "mean GET (ms)", "p99 GET (ms)"],
        rows, title="Fig. 1: victim latency while a tenant floods LISTs"))
    benchmark.extra_info["shared_p99_ms"] = round(rows[0][2], 1)
    benchmark.extra_info["apf_p99_ms"] = round(rows[1][2], 1)
    benchmark.extra_info["vc_p99_ms"] = round(rows[2][2], 1)

    shared_p99, apf_p99, vc_p99 = rows[0][2], rows[1][2], rows[2][2]
    # The Fig. 1 problem: sharing makes the victim much slower.
    assert shared_p99 > 5 * vc_p99
    # APF mitigates but cannot beat full isolation.
    assert apf_p99 < shared_p99
    assert vc_p99 <= apf_p99 * 1.2
