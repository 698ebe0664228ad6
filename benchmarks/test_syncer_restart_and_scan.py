"""§IV-C text results: syncer restart time and periodic-scan cost.

Paper: with 100 tenant control planes and 10,000 Pods, re-initializing
all informer caches after a syncer restart took under 21 seconds, and a
full periodic scan of 10,000 Pods (one scanning thread per tenant,
running in parallel) finished in under two seconds on average.
"""

from benchmarks.conftest import (
    PODS_SWEEP,
    TENANTS,
    live_run,
    once,
    paper_scenario,
)


def _populated_env():
    """A fresh deployment with the Fig. 8 run's Pods synced."""
    return live_run(paper_scenario(PODS_SWEEP[-1], TENANTS)).env


def test_syncer_restart_time(benchmark):
    num_pods = PODS_SWEEP[-1]

    def run():
        env = _populated_env()
        elapsed = env.run_coroutine(env.syncer.simulate_restart())
        return elapsed, env

    elapsed, env = once(benchmark, run)
    print(f"\nsyncer restart: re-primed all informer caches in "
          f"{elapsed:.2f} simulated seconds "
          f"({len(env.syncer.tenants)} tenants)")
    benchmark.extra_info["restart_seconds"] = round(elapsed, 2)
    # Paper bound: < 21 s at full scale.
    assert elapsed < 21.0
    # And the caches really are primed.
    pods_cached = len(env.syncer.super_informer("pods").cache)
    assert pods_cached >= num_pods


def test_periodic_scan_cost(benchmark):
    num_pods = PODS_SWEEP[-1]

    def run():
        env = _populated_env()

        def scan_all():
            processes = [
                env.sim.process(env.syncer.scanner.scan_tenant(tenant))
                for tenant in env.syncer.tenants
            ]
            yield env.sim.all_of(processes)

        start = env.sim.now
        env.run_coroutine(scan_all())
        return env.sim.now - start, env

    elapsed, env = once(benchmark, run)
    scanned = env.syncer.scanner.objects_scanned_total
    print(f"\nperiodic scan: {scanned} objects across "
          f"{len(env.syncer.tenants)} parallel tenant scanners in "
          f"{elapsed:.2f} simulated seconds")
    benchmark.extra_info["scan_seconds"] = round(elapsed, 2)
    benchmark.extra_info["objects_scanned"] = scanned
    # Paper bound: scanning 10,000 Pods takes < 2 s.
    assert elapsed < 2.0
    assert scanned >= num_pods
