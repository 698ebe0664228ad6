"""Table I: per-phase time-bucket counts for the Fig. 8 run.

Paper findings: the delay variations are small in all phases except
DWS-Queue, where the burst accumulates — DWS-Queue counts spread across
all buckets while DWS-Process/UWS-Process land entirely in [0,2].
"""

from repro.metrics import format_bucket_table

from benchmarks.conftest import PODS_SWEEP, TENANTS, once, vc_run


def test_table1_phase_buckets(benchmark):
    num_pods = PODS_SWEEP[-1]
    tenants = TENANTS

    result = once(benchmark, lambda: vc_run(num_pods, tenants))
    buckets = result.phase_buckets

    print()
    print(format_bucket_table(buckets))
    for phase, counts in buckets.items():
        benchmark.extra_info[phase] = counts

    total = num_pods
    # Every phase accounts for every pod.
    for phase, counts in buckets.items():
        assert sum(counts) == total, phase

    # Processing phases are instantaneous: all in the first bucket.
    assert buckets["DWS-Process"][0] == total
    assert buckets["UWS-Process"][0] >= 0.99 * total

    # DWS-Queue spreads across more buckets than any other phase.
    def occupied(counts):
        return sum(1 for count in counts if count > 0)

    spread = {phase: occupied(counts) for phase, counts in buckets.items()}
    assert spread["DWS-Queue"] == max(spread.values())
    assert spread["DWS-Queue"] >= 2
