"""Figure 8: the average Pod-creation round-trip latency breakdown.

Paper (10,000 Pods, 100 tenants): the two syncer queues contribute ~75%
of the latency (48.5% downward + 25.3% upward), the super-cluster phase
~21%, and both synchronization processing steps are negligible.
"""

from repro.metrics import format_phase_breakdown

from benchmarks.conftest import PODS_SWEEP, TENANTS, once, vc_run


def test_fig8_phase_breakdown(benchmark):
    num_pods = PODS_SWEEP[-1]
    tenants = TENANTS

    result = once(benchmark, lambda: vc_run(num_pods, tenants))
    phases = result.phase_means
    total = sum(phases.values())
    shares = {name: value / total for name, value in phases.items()}

    print()
    print(format_phase_breakdown(
        phases, title=f"Fig. 8 breakdown ({num_pods} pods, "
                      f"{tenants} tenants)"))
    for name, share in shares.items():
        benchmark.extra_info[name] = round(share, 3)

    # Shape assertions straight from the paper's findings:
    # 1. The downward queue is the single largest contributor.
    assert shares["DWS-Queue"] == max(shares.values())
    # 2. The two queues together dominate (paper ~75%).
    assert shares["DWS-Queue"] + shares["UWS-Queue"] > 0.5
    # 3. Both synchronization steps are negligible.
    assert shares["DWS-Process"] < 0.05
    assert shares["UWS-Process"] < 0.05
    # 4. The super-cluster phase is visible but not dominant.
    assert 0.02 < shares["Super-Sched"] < 0.45
