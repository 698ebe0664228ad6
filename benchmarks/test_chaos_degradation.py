"""Chaos degradation: blast-radius containment under a tenant outage.

One tenant's control plane goes down hard while three healthy tenants
submit a burst of Pod creations.  The dead tenant's upward work fails
slowly (each attempt burns a full client retry sequence), so without
containment it monopolises the shared UWS workers and the outage leaks
into every other tenant's latency.

- Circuit breaker ON: the health tracker trips after a few consecutive
  retryable failures, parks the dead tenant's items, and frees the
  workers — healthy tenants' p95 creation latency stays within ~2x of
  the fault-free run.
- Circuit breaker OFF (ablation): the failed items hot-loop through the
  workers and the healthy tenants stall behind them.
"""

from repro.config import DEFAULT_CONFIG
from repro.core.env import VirtualClusterEnv
from repro.metrics import format_table

from benchmarks.conftest import once

#: Sequential creations measured per healthy tenant after the outage.
BURST = 6
#: Hard cap on how long we wait for any single benchmark pod (s).
CAP = 60.0
#: Steady-state window between the crash and the measured burst: long
#: enough for the breaker to trip (or, in the ablation, for the failed
#: items to settle into their retry hot-loop).
SETTLE = 6.0


def _run(circuit_breaker, crash):
    config = DEFAULT_CONFIG.with_overrides(syncer={
        "scan_interval": 5.0, "dws_workers": 3, "uws_workers": 2,
        "circuit_breaker": circuit_breaker})
    env = VirtualClusterEnv(seed=0, config=config, num_virtual_nodes=3)
    env.bootstrap()
    healthy = [env.run_coroutine(env.create_tenant(f"healthy-{i}"))
               for i in range(3)]
    doomed = env.run_coroutine(env.create_tenant("doomed"))
    for handle in healthy + [doomed]:
        env.run_coroutine(handle.create_pod("warm"))
    for handle in healthy + [doomed]:
        env.run_until_pods_ready(handle, ["default/warm"], timeout=60.0)

    if crash:
        # In-flight work for the doomed tenant, then the outage.
        for index in range(10):
            env.run_coroutine(doomed.create_pod(f"hot-{index}"))
        env.run_for(0.3)
        doomed.control_plane.api.crash()
    env.run_for(SETTLE)

    start = env.sim.now
    for handle in healthy:
        for index in range(BURST):
            env.run_coroutine(handle.create_pod(f"bench-{index}"))
    latencies = []
    for handle in healthy:
        for index in range(BURST):
            remaining = max(1e-9, CAP - (env.sim.now - start))
            try:
                env.run_until_pods_ready(handle,
                                         [f"default/bench-{index}"],
                                         timeout=remaining)
                latencies.append(env.sim.now - start)
            except TimeoutError:
                latencies.append(CAP)
    latencies.sort()
    p95 = latencies[int(0.95 * (len(latencies) - 1))]
    mean = sum(latencies) / len(latencies)
    return {"p95": p95, "mean": mean, "stats": env.syncer.stats()}


def _report(rows):
    print()
    print(format_table(
        ["scenario", "p95 (s)", "mean (s)"],
        [(name, round(r["p95"], 2), round(r["mean"], 2))
         for name, r in rows],
        title="Healthy-tenant Pod creation during a one-tenant outage"))


def test_breaker_bounds_healthy_tenant_p95(benchmark):
    def scenario():
        return (_run(circuit_breaker=True, crash=False),
                _run(circuit_breaker=True, crash=True))

    baseline, degraded = once(benchmark, scenario)
    _report([("fault-free", baseline), ("breaker + outage", degraded)])
    counters = degraded["stats"]["counters"]
    benchmark.extra_info["baseline_p95_s"] = round(baseline["p95"], 2)
    benchmark.extra_info["degraded_p95_s"] = round(degraded["p95"], 2)
    benchmark.extra_info["breaker_opens"] = counters.get("breaker_open", 0)

    # The breaker actually engaged and parked the dead tenant's work.
    assert counters.get("breaker_open", 0) >= 1
    assert degraded["stats"]["parked_items"] >= 1
    # Blast-radius bound: healthy tenants' p95 within ~2x of fault-free.
    assert degraded["p95"] <= 2.0 * baseline["p95"]


def test_ablation_no_breaker_stalls_healthy_tenants(benchmark):
    def scenario():
        return (_run(circuit_breaker=True, crash=False),
                _run(circuit_breaker=False, crash=True))

    baseline, ablation = once(benchmark, scenario)
    _report([("fault-free", baseline), ("no breaker + outage", ablation)])
    benchmark.extra_info["baseline_p95_s"] = round(baseline["p95"], 2)
    benchmark.extra_info["ablation_p95_s"] = round(ablation["p95"], 2)

    # Without the breaker the circuit never opens...
    assert ablation["stats"]["counters"].get("breaker_open", 0) == 0
    # ...the dead tenant's items keep hot-looping through the workers...
    assert ablation["stats"]["counters"].get("uws_api_error", 0) >= 5
    # ...and the outage leaks into healthy tenants' latency (observed
    # ~6x; assert a conservative 3x stall to stay robust to tuning).
    assert ablation["p95"] >= 3.0 * baseline["p95"]
    assert ablation["mean"] >= 3.0 * baseline["mean"]
