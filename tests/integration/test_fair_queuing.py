"""Small-scale fair-queuing integration (the Fig. 11 mechanism).

The full-size experiment (10 greedy x 900 + 40 regular x 10) lives in
benchmarks/; here a scaled-down scenario verifies the mechanism quickly.
"""

import pytest

from repro.scenarios import (
    BurstShape,
    ControlSpec,
    PoolSpec,
    Scenario,
    SequentialShape,
    TenantSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)

GREEDY, BURST = 2, 900
REGULAR, SEQUENTIAL = 6, 5


def _tenant(kind, index, shape):
    return TenantSpec(name=f"{kind}-{index:03d}", workloads=[WorkloadSpec(
        name=f"{kind[0]}{index:03d}", shape=shape, start=1.0)])


def _means(fair):
    """Per-tenant mean creation time, split into (greedy, regular)."""
    tenants = [_tenant("greedy", index, BurstShape(count=BURST))
               for index in range(GREEDY)]
    tenants += [_tenant("regular", index, SequentialShape(count=SEQUENTIAL))
                for index in range(REGULAR)]
    result = run_scenario(Scenario(
        name="fairness", seed=7, horizon=2.0, convergence_timeout=600.0,
        control=ControlSpec(optimized=False, dws_workers=20,
                            uws_workers=100, scan_interval=60.0,
                            fair_queuing=fair),
        topology=TopologySpec(pools=[PoolSpec(name="vk-node", nodes=10)]),
        tenants=tenants))
    assert result.ok, result.failures
    traces = result.env.syncer.trace_store
    means = traces.mean_creation_time_by_tenant()
    greedy = [mean for key, mean in means.items() if "/greedy-" in key]
    regular = [mean for key, mean in means.items() if "/regular-" in key]
    return greedy, regular, traces.completed_count


@pytest.fixture(scope="module")
def fairness_results():
    return _means(fair=True), _means(fair=False)


class TestFairQueuing:
    def test_regular_users_fast_under_fair_queuing(self, fairness_results):
        (_greedy, regular, _count), _unfair = fairness_results
        assert max(regular) < 2.0  # paper: "less than two seconds"

    def test_greedy_users_bear_their_own_burst(self, fairness_results):
        (greedy, regular, _count), _unfair = fairness_results
        assert min(greedy) > max(regular)

    def test_disabled_fairness_starves_regular_users(self, fairness_results):
        (_greedy, fair_regular, _count), (_, unfair_regular, _) = \
            fairness_results
        # Without fair queuing regular users queue behind the burst.
        assert max(unfair_regular) > 1.4 * max(fair_regular)

    def test_all_pods_complete_either_way(self, fairness_results):
        (_, _, fair_count), (_, _, unfair_count) = fairness_results
        expected = GREEDY * BURST + REGULAR * SEQUENTIAL
        assert fair_count == expected
        assert unfair_count == expected
