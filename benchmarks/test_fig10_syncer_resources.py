"""Figure 10: the syncer's CPU and memory usage.

Paper findings (top: CPU, bottom: memory):

- accumulated CPU time grows roughly linearly with the number of Pods;
  at 10,000 Pods the syncer consumed ~138 s of CPU over ~23 s wall
  (~6 CPUs) — far above normal-case needs;
- peak RSS grows ~40 KB per Pod (~1.2 GB at 10,000 Pods), dominated by
  the informer caches (two copies of every synced object).
"""

from repro.metrics import format_table

from benchmarks.conftest import PODS_SWEEP, TENANTS, once, vc_run


def test_fig10_syncer_cpu_and_memory(benchmark):
    tenants = TENANTS

    def run():
        rows = []
        for num_pods in PODS_SWEEP:
            result = vc_run(num_pods, tenants)
            rows.append((
                num_pods,
                result.cpu_seconds,
                result.duration,
                result.cpu_seconds / result.duration,
                result.peak_memory_bytes / 1e6,
                result.peak_memory_bytes / num_pods / 1024,
            ))
        return rows

    rows = once(benchmark, run)
    print()
    print(format_table(
        ["pods", "CPU (s)", "wall (s)", "CPUs", "peak mem (MB)",
         "KB/pod"],
        rows, title="Fig. 10: syncer resource usage"))

    pods = [row[0] for row in rows]
    cpu = [row[1] for row in rows]
    mem = [row[4] for row in rows]
    kb_per_pod = [row[5] for row in rows]
    benchmark.extra_info["cpus_at_max"] = round(rows[-1][3], 2)
    benchmark.extra_info["kb_per_pod"] = round(kb_per_pod[-1], 1)

    # CPU and memory increase monotonically with pod count...
    assert cpu == sorted(cpu)
    assert mem == sorted(mem)
    # ...and roughly linearly: doubling pods less than triples both.
    for index in range(1, len(rows)):
        pod_ratio = pods[index] / pods[index - 1]
        assert cpu[index] / cpu[index - 1] < 1.6 * pod_ratio
        assert mem[index] / mem[index - 1] < 1.6 * pod_ratio
    # Per-pod memory growth in the tens of kilobytes (paper ~40 KB).
    assert 10 < kb_per_pod[-1] < 120
    # Under burst the syncer needs multiple CPUs (paper ~6), far above
    # the 1-2 CPU recommendation for normal loads.
    assert rows[-1][3] > 1.5

    # Kernel heap occupancy stays bounded at the largest sweep point:
    # far timers wait in the wheel and abandoned any_of losers are
    # cancelled or lazily skipped, so the ready heap holds only the
    # current burst — orders of magnitude below total dispatches.
    stats = vc_run(pods[-1], tenants).kernel_stats
    benchmark.extra_info["peak_heap"] = stats["peak_heap"]
    assert stats["wheel_scheduled"] > 0
    assert stats["timers_cancelled"] + stats["orphans_skipped"] > 0
    assert stats["peak_heap"] < stats["dispatched"] / 50
