"""Small-scale fair-queuing integration (the Fig. 11 mechanism).

The full-size experiment (10 greedy x 900 + 40 regular x 10) lives in
benchmarks/; here a scaled-down version verifies the mechanism quickly.
"""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.workloads import run_fairness_stress


@pytest.fixture(scope="module")
def fairness_results():
    fair = run_fairness_stress(num_greedy=2, num_regular=6, greedy_pods=900,
                               regular_pods=5, num_nodes=10, seed=7)
    unfair = run_fairness_stress(
        num_greedy=2, num_regular=6, greedy_pods=900, regular_pods=5,
        num_nodes=10, seed=7,
        config=DEFAULT_CONFIG.with_overrides(syncer={"fair_queuing": False}))
    return fair, unfair


class TestFairQueuing:
    def test_regular_users_fast_under_fair_queuing(self, fairness_results):
        fair, _unfair = fairness_results
        worst_regular = max(fair.regular_means.values())
        assert worst_regular < 2.0  # paper: "less than two seconds"

    def test_greedy_users_bear_their_own_burst(self, fairness_results):
        fair, _unfair = fairness_results
        best_greedy = min(fair.greedy_means.values())
        worst_regular = max(fair.regular_means.values())
        assert best_greedy > worst_regular

    def test_disabled_fairness_starves_regular_users(self, fairness_results):
        fair, unfair = fairness_results
        fair_worst = max(fair.regular_means.values())
        unfair_worst = max(unfair.regular_means.values())
        # Without fair queuing regular users queue behind the burst.
        assert unfair_worst > 1.4 * fair_worst

    def test_all_pods_complete_either_way(self, fairness_results):
        fair, unfair = fairness_results
        expected = 2 * 900 + 6 * 5
        assert len(fair.creation_times) == expected
        assert len(unfair.creation_times) == expected
