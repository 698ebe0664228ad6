"""Ablation: why a *centralized* syncer (paper §III-C design rationale).

The paper gives two arguments for one shared syncer over per-tenant
syncers:

1. restart list-storm: when the super apiserver (or the syncer) restarts,
   a centralized syncer lists the super cluster state once, while N
   per-tenant syncers would issue N full LISTs and flood the apiserver;
2. fair queuing is only implementable with a shared queue.

This benchmark quantifies (1) by measuring super-cluster LIST traffic for
the centralized design versus an emulated per-tenant design, and spot
checks (2) via the fairness harness.
"""

from repro.clientgo import InformerFactory
from repro.core.syncer.syncer import SUPER_WATCHED

from benchmarks.conftest import (
    PODS_SWEEP,
    TENANTS,
    TENANTS_SMALL,
    live_run,
    once,
    paper_scenario,
    vc_run,
)


def test_restart_list_load_centralized_vs_per_tenant(benchmark):
    num_pods = PODS_SWEEP[-2]
    tenants = TENANTS

    def run():
        env = live_run(paper_scenario(num_pods, tenants)).env

        def super_list_count():
            return sum(
                informer.reflector.list_count
                for informer in env.syncer.super_informers.informers.values()
            )

        # Centralized: one restart -> one LIST per watched super resource.
        before = super_list_count()
        env.run_coroutine(env.syncer.simulate_restart())
        centralized_lists = super_list_count() - before

        # Per-tenant emulation: each tenant's own syncer would maintain
        # its own super-cluster informer set and relist it on restart.
        factories = []
        for _tenant in range(len(env.syncer.tenants)):
            client = env.super_cluster.client(
                user_agent="per-tenant-syncer", qps=1_000_000,
                burst=2_000_000)
            factory = InformerFactory(env.sim, client)
            for plural in SUPER_WATCHED:
                factory.informer(plural)
            factory.start_all()
            factories.append(factory)

        def wait_all():
            for factory in factories:
                yield from factory.wait_for_sync()

        env.run_coroutine(wait_all())
        per_tenant_lists = sum(
            informer.reflector.list_count
            for factory in factories
            for informer in factory.informers.values()
        )
        for factory in factories:
            factory.stop_all()
        return centralized_lists, per_tenant_lists

    centralized, per_tenant = once(benchmark, run)
    print(f"\nrestart LIST storm against the super apiserver:")
    print(f"  centralized syncer : {centralized:6d} LISTs")
    print(f"  per-tenant syncers : {per_tenant:6d} LISTs "
          f"({tenants} tenants)")
    benchmark.extra_info["centralized_lists"] = centralized
    benchmark.extra_info["per_tenant_lists"] = per_tenant
    # The per-tenant design multiplies the list storm by ~#tenants: each
    # of the N per-tenant syncers relists every watched super resource,
    # while the centralized syncer lists each resource once.
    assert centralized == len(SUPER_WATCHED)
    assert per_tenant >= tenants * centralized


def test_upward_worker_count_does_affect_latency(benchmark):
    """Counterpart to the Fig. 7 downward-worker observation: the paper
    notes the number of *upward* workers does affect latency (tenant
    control planes have no status-update bottleneck), motivating the
    default of 100 upward / 20 downward workers."""
    num_pods = PODS_SWEEP[-2]
    tenants = TENANTS_SMALL

    def run():
        starved = vc_run(num_pods, tenants, uws_workers=1)
        default = vc_run(num_pods, tenants, uws_workers=100)
        return starved, default

    starved, default = once(benchmark, run)
    print(f"\nmean creation time with 1 upward worker:   "
          f"{starved.mean:.2f} s")
    print(f"mean creation time with 100 upward workers: "
          f"{default.mean:.2f} s")
    benchmark.extra_info["uws1_mean_s"] = round(starved.mean, 2)
    benchmark.extra_info["uws100_mean_s"] = round(default.mean, 2)
    assert starved.mean > default.mean
