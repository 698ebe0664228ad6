"""Declarative scenarios: traffic × tenants × topology × chaos
(DESIGN.md §14).

A scenario is one YAML file (or typed builder call) composing:

- **traffic shapes** — constant, diurnal, flash-crowd, burst,
  sequential, rolling-upgrade (:mod:`repro.scenarios.shapes`);
- **tenant mixes** — counts, fair-queue weights, namespaces, per-tenant
  workload templates;
- **topologies** — super-cluster node pools, edge sites behind
  :class:`~repro.network.NetworkLink` uplinks, elastic virtual-kubelet
  pools with staged joins;
- **chaos overlays** — `repro.chaos` faults on declarative schedules;
- **expectations + golden** — convergence, telemetry floors, and the
  recorded converged-state sha256 digest the conformance suite replays
  against.

Everything compiles onto the seeded simkernel, so a scenario is a pure
function from its YAML to a digest: ``python -m repro.scenarios verify``
replays the corpus and fails on any drift.
"""

from .errors import GoldenMismatch, ScenarioError
from .loader import (
    corpus_paths,
    dumps,
    load_scenario,
    loads,
)
from .model import (
    ChaosSpec,
    ControlSpec,
    ElasticSpec,
    ExpectSpec,
    GoldenSpec,
    LinkSpec,
    PoolSpec,
    Scenario,
    ScheduleSpec,
    TelemetryExpect,
    TenantSpec,
    TopologySpec,
    WorkloadSpec,
)
from .runner import (
    CompiledWorkload,
    ScenarioResult,
    compile_load,
    derive_seed,
    record_scenario,
    run_scenario,
    verify_scenario,
)
from .shapes import (
    CONTINUOUS_SHAPES,
    SHAPES,
    BurstShape,
    ConstantShape,
    DiurnalShape,
    FlashCrowdShape,
    RollingUpgradeShape,
    SequentialShape,
    Shape,
)

__all__ = [
    "BurstShape",
    "CONTINUOUS_SHAPES",
    "ChaosSpec",
    "CompiledWorkload",
    "ConstantShape",
    "ControlSpec",
    "DiurnalShape",
    "ElasticSpec",
    "ExpectSpec",
    "FlashCrowdShape",
    "GoldenMismatch",
    "GoldenSpec",
    "LinkSpec",
    "PoolSpec",
    "RollingUpgradeShape",
    "SHAPES",
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "ScheduleSpec",
    "SequentialShape",
    "Shape",
    "TelemetryExpect",
    "TenantSpec",
    "TopologySpec",
    "WorkloadSpec",
    "compile_load",
    "corpus_paths",
    "derive_seed",
    "dumps",
    "load_scenario",
    "loads",
    "record_scenario",
    "run_scenario",
    "verify_scenario",
]
