"""The summary of one stress run: the values the paper's §IV figures
are drawn from (per-Pod creation times, phase breakdowns and bucket
counts, throughput, syncer resource usage), whichever harness produced
them.  ``benchmarks/`` fills one from a finished ``run_scenario`` run;
the perf ledger uses its percentile rule.
"""

from dataclasses import dataclass, field


@dataclass
class StressResult:
    mode: str
    num_pods: int
    num_tenants: int
    creation_times: list = field(default_factory=list)
    duration: float = 0.0
    throughput: float = 0.0
    phase_means: dict = None
    phase_buckets: dict = None
    cpu_seconds: float = 0.0
    peak_memory_bytes: int = 0
    per_tenant_mean: dict = None
    syncer_stats: dict = None
    # Full registry + span-aggregate export (Telemetry.snapshot()), taken
    # at the end of the run.
    telemetry: dict = None
    # Simulation.kernel_stats() at the end of the run.
    kernel_stats: dict = None

    @property
    def mean(self):
        if not self.creation_times:
            return 0.0
        return sum(self.creation_times) / len(self.creation_times)

    def percentile(self, pct):
        if not self.creation_times:
            return 0.0
        ordered = sorted(self.creation_times)
        index = min(len(ordered) - 1,
                    max(0, round(pct / 100.0 * (len(ordered) - 1))))
        return ordered[index]
