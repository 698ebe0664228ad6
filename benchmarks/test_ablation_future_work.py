"""Ablations for the paper's §V future-work features (implemented here).

- custom tenant weights (footnote 2): WRR shares follow the weights;
- idle control-plane swapping: fleet memory savings vs wake latency.
"""

from repro.config import DEFAULT_CONFIG, SwapperConfig
from repro.core import IdleSwapper, VirtualClusterEnv
from repro.core.swapper import control_plane_memory
from repro.workloads import LoadGenerator, TenantLoadPattern

from benchmarks.conftest import NODES, PODS_SWEEP, once


def test_tenant_weight_latency_shares(benchmark):
    """Two equally greedy tenants, weights 4:1."""

    def run():
        env = VirtualClusterEnv(num_virtual_nodes=NODES)
        env.bootstrap()
        heavy = env.run_coroutine(env.create_tenant("premium", weight=4))
        light = env.run_coroutine(env.create_tenant("basic", weight=1))
        env.run_for(1)
        generator = LoadGenerator(env.sim)
        burst = PODS_SWEEP[0]
        jobs = [(tenant.client, TenantLoadPattern(burst, mode="burst",
                                                  name_prefix=prefix))
                for tenant, prefix in ((heavy, "h"), (light, "l"))]
        env.run_coroutine(generator.run_all(jobs))
        env.run_until(
            lambda: len(env.syncer.trace_store.completed()) >= 2 * burst,
            timeout=1800, poll=0.5)
        means = env.syncer.trace_store.mean_creation_time_by_tenant()
        return means[heavy.key], means[light.key]

    heavy_mean, light_mean = once(benchmark, run)
    print(f"\nweight=4 tenant mean creation: {heavy_mean:.2f} s")
    print(f"weight=1 tenant mean creation: {light_mean:.2f} s")
    benchmark.extra_info["heavy_mean_s"] = round(heavy_mean, 2)
    benchmark.extra_info["light_mean_s"] = round(light_mean, 2)
    assert heavy_mean < light_mean


def test_idle_swapping_memory_vs_wakeup(benchmark):
    """Cost/performance trade-off of swapping idle control planes."""

    def run():
        env = VirtualClusterEnv(
            num_virtual_nodes=4,
            config=DEFAULT_CONFIG.with_overrides(
                syncer={"scan_interval": 600.0}))
        env.bootstrap()
        # The ablation: immediate page-out, no warm pool, unbounded wakes.
        swapper = IdleSwapper(env.sim, SwapperConfig(
            idle_threshold=30.0, check_interval=5.0, cold_wake_latency=0.8,
            swapout_latency=0.0, warm_pool=0, wake_concurrency=0))
        swapper.start()
        tenants = [env.run_coroutine(env.create_tenant(f"t{i}"))
                   for i in range(10)]
        for tenant in tenants:
            swapper.track(tenant.control_plane)
        before = swapper.total_resident_bytes()
        env.run_for(60)  # everyone idles out
        after = swapper.total_resident_bytes()
        # Wake one tenant; measure the first-request penalty.
        start = env.sim.now
        env.run_coroutine(tenants[0].client.list("pods",
                                                 namespace="default"))
        wake = env.sim.now - start
        return before, after, wake, swapper.swapped_count()

    before, after, wake, swapped = once(benchmark, run)
    print(f"\nresident control-plane memory: {before / 1e6:.0f} MB awake "
          f"-> {after / 1e6:.0f} MB with {swapped} tenants swapped "
          f"(wake-up penalty {wake:.2f} s)")
    benchmark.extra_info["savings_pct"] = round(100 * (1 - after / before))
    benchmark.extra_info["wake_s"] = round(wake, 2)
    assert after < 0.4 * before
    assert 0.5 < wake < 2.0
