"""What the benchmark is: paths, workload sizes, layers, predictions.

``BENCHMARK.json`` (repo root) is the authority on metric names, units,
directions and regression bounds; this module adds what that file's
fixed schema has no room for — input sizes, the file → layer map, and
which end-to-end metric each per-layer metric is expected to move.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
CORPUS = ROOT / "scenarios" / "corpus"
OUT = Path(__file__).resolve().parent / "out"


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Input sizes.  "full" is the only scale whose numbers are ever recorded;
# "smoke" exists so a change to the harness can be checked in seconds.
#
# The issue sized the stress workloads at 2000 Pods (6-11 s per
# repetition).  The driver's contract allows ~30 s per invocation
# including several set-ups, so a repetition is 1000 Pods (the smallest
# n whose p99 still has ten samples beyond it) and tenant_churn is 120
# tenants; a run repeats it until --seconds of timed work are done.
# ----------------------------------------------------------------------

SIZES = {
    "full": {
        "vc_stress": dict(pods=1000, tenants=20, nodes=100, rate=1000.0),
        "super_direct": dict(pods=1000, tenants=20, nodes=100, rate=1000.0),
        "vc_hotpath_wal": dict(pods=1000, tenants=20, nodes=100,
                               rate=5000.0),
        "tenant_churn": dict(tenants=120, pods_per_tenant=4, nodes=20,
                             idle=60.0, drain=30.0),
        "scenario_corpus": dict(scenarios=None),   # the whole corpus
    },
    "smoke": {
        "vc_stress": dict(pods=200, tenants=10, nodes=20, rate=1000.0),
        "super_direct": dict(pods=200, tenants=10, nodes=20, rate=1000.0),
        "vc_hotpath_wal": dict(pods=200, tenants=10, nodes=20, rate=5000.0),
        "tenant_churn": dict(tenants=30, pods_per_tenant=4, nodes=10,
                             idle=20.0, drain=10.0),
        "scenario_corpus": dict(scenarios=3),
    },
}

# Metrics that are functions of the inputs alone (simulated quantities
# and event counts): identical for one seed on any host, so repetitions
# of one run must agree bit for bit.
EXACT = ("events_per_pod", "sim_create_p50_s", "sim_create_p99_s",
         "sim_pods_per_s")

# Host timings of the work itself.  Host noise on a shared box only ever
# adds time (bursts of a neighbour's load, seconds to a minute long), so
# an invocation reports its best repetition for these, and the median
# for everything else.
BEST_OF_RUN = ("host_wall_s", "host_cpu_s", "host_pods_per_s",
               "host_events_per_s")


# ----------------------------------------------------------------------
# Layers: every file under src/repro belongs to exactly one.
# ----------------------------------------------------------------------

LAYERS = (
    "simkernel", "objects", "storage", "apiserver", "clientgo",
    "core.syncer", "core.tenant_operator", "controllers", "scheduler",
    "virtualkubelet", "telemetry", "scenarios", "workloads",
)
# Time no repro layer can be charged with: the harness's own frames and
# the profiler's entry point.
HARNESS = "harness"

# First matching prefix (relative to src/repro/) wins.
_LAYER_RULES = (
    ("simkernel/", "simkernel"),
    ("objects/", "objects"),
    ("storage/", "storage"),
    ("apiserver/", "apiserver"),
    ("clientgo/", "clientgo"),
    ("core/syncer/", "core.syncer"),
    # Control-plane provisioning: the operator and what it assembles.
    ("core/tenant_operator.py", "core.tenant_operator"),
    ("core/controlplane.py", "core.tenant_operator"),
    ("core/crd.py", "core.tenant_operator"),
    ("core/swapper.py", "core.tenant_operator"),
    ("core/__init__.py", "core.tenant_operator"),
    ("controllers/", "controllers"),
    ("scheduler/", "scheduler"),
    # Node agents.
    ("virtualkubelet/", "virtualkubelet"),
    ("kubelet/", "virtualkubelet"),
    ("kubeproxy/", "virtualkubelet"),
    ("telemetry/", "telemetry"),
    ("metrics/", "telemetry"),
    # The scenario DSL and the opt-in machinery only it switches on.
    ("scenarios/", "scenarios"),
    ("chaos/", "scenarios"),
    ("network/", "scenarios"),
    ("analysis/", "scenarios"),
    # Load generation and environment assembly.
    ("workloads/", "workloads"),
    ("core/", "workloads"),
    ("config.py", "workloads"),
    ("__init__.py", "workloads"),
)

_PACKAGE_MARK = "/src/repro/"


def layer_of(filename):
    """The layer a profiled code object belongs to, or None.

    ``filename`` is ``code.co_filename``: a path, ``~`` for builtins, or
    ``<serde Class.method>`` for the object layer's generated serde.
    """
    if filename.startswith("<serde "):
        return "objects"
    index = filename.replace("\\", "/").rfind(_PACKAGE_MARK)
    if index < 0:
        return None
    relative = filename[index + len(_PACKAGE_MARK):]
    for prefix, layer in _LAYER_RULES:
        if relative.startswith(prefix):
            return layer
    return None


# ----------------------------------------------------------------------
# Predictions, written before measuring: per-layer metric ->
# (end-to-end metric it should move, workload where it should show).
# bench/tests checks this table against BENCHMARK.json name for name.
# ----------------------------------------------------------------------

def _layer_self(moves):
    return {f"{layer}.{suffix}": target
            for layer, target in moves.items()
            for suffix in ("self_s", "share")}


MOVES = {
    **_layer_self({
        "simkernel": ("host_wall_s", "tenant_churn"),
        "objects": ("host_cpu_s", "vc_stress"),
        "storage": ("host_cpu_s", "vc_hotpath_wal"),
        "apiserver": ("host_cpu_s", "super_direct"),
        "clientgo": ("host_wall_s", "tenant_churn"),
        "core.syncer": ("host_cpu_s", "vc_stress"),
        "core.tenant_operator": ("host_wall_s", "tenant_churn"),
        "controllers": ("host_wall_s", "tenant_churn"),
        "scheduler": ("host_cpu_s", "super_direct"),
        "virtualkubelet": ("host_cpu_s", "super_direct"),
        "telemetry": ("host_cpu_s", "vc_stress"),
        "scenarios": ("host_wall_s", "scenario_corpus"),
        "workloads": ("host_wall_s", "tenant_churn"),
    }),
    "harness.share": ("host_wall_s", "scenario_corpus"),
    "trace.overhead_ratio": ("host_wall_s", "vc_stress"),
    # Who pays for serde.
    "objects.incl_s.from_apiserver": ("host_cpu_s", "super_direct"),
    "objects.incl_s.from_storage": ("host_cpu_s", "vc_hotpath_wal"),
    "objects.incl_s.from_clientgo": ("host_cpu_s", "vc_stress"),
    "objects.incl_s.from_core.syncer": ("host_cpu_s", "vc_stress"),
    "objects.incl_s.from_scheduler": ("host_cpu_s", "super_direct"),
    "objects.to_dict_calls": ("host_pods_per_s", "vc_stress"),
    "objects.from_dict_calls": ("host_pods_per_s", "vc_stress"),
    "objects.deep_copy_calls": ("peak_rss_mb", "vc_stress"),
    "objects.serde_calls_per_pod": ("host_pods_per_s", "vc_stress"),
    "simkernel.dispatched": ("events_per_pod", "vc_stress"),
    "simkernel.wheel_scheduled": ("host_wall_s", "tenant_churn"),
    "simkernel.orphans_skipped": ("events_per_pod", "vc_stress"),
    "simkernel.peak_heap": ("peak_rss_mb", "tenant_churn"),
    "simkernel.us_per_event": ("host_events_per_s", "tenant_churn"),
    "simkernel.idle_events_per_tenant_sim_s": ("host_wall_s",
                                               "tenant_churn"),
    "storage.writes": ("host_cpu_s", "super_direct"),
    "storage.reads": ("host_wall_s", "tenant_churn"),
    "storage.txn_ops": ("host_cpu_s", "vc_hotpath_wal"),
    "storage.wal_appends": ("host_cpu_s", "vc_hotpath_wal"),
    "storage.cas_conflicts": ("host_cpu_s", "vc_stress"),
    "storage.watch_evals": ("host_cpu_s", "super_direct"),
    "storage.watch_deliveries": ("host_cpu_s", "super_direct"),
    "storage.watch_useful_ratio": ("host_cpu_s", "super_direct"),
    "apiserver.requests": ("host_cpu_s", "super_direct"),
    "apiserver.requests_per_pod": ("host_pods_per_s", "super_direct"),
    "apiserver.errors": ("sim_create_p99_s", "vc_hotpath_wal"),
    "apiserver.sim_busy_s": ("sim_pods_per_s", "super_direct"),
    "clientgo.informer_events": ("host_wall_s", "tenant_churn"),
    "clientgo.relists": ("events_per_pod", "tenant_churn"),
    "clientgo.watch_failures": ("events_per_pod", "scenario_corpus"),
    "clientgo.queue_adds": ("host_cpu_s", "vc_stress"),
    "clientgo.queue_dedup_ratio": ("host_cpu_s", "vc_stress"),
    "clientgo.fairqueue_wait_sim_s": ("sim_create_p99_s", "vc_stress"),
    "core.syncer.items_down": ("host_cpu_s", "vc_stress"),
    "core.syncer.items_up": ("host_cpu_s", "vc_stress"),
    "core.syncer.writes_per_item": ("host_cpu_s", "vc_hotpath_wal"),
    "core.syncer.lock_contentions": ("sim_create_p99_s", "vc_stress"),
    "core.syncer.batches_flushed": ("sim_pods_per_s", "vc_hotpath_wal"),
    "core.syncer.vnode_heartbeats": ("events_per_pod", "tenant_churn"),
    "core.syncer.sim_cpu_s": ("sim_pods_per_s", "vc_stress"),
    "core.syncer.sim_peak_mem_mb": ("peak_rss_mb", "vc_stress"),
    "scheduler.binds": ("sim_pods_per_s", "super_direct"),
    "scheduler.filter_calls": ("host_cpu_s", "super_direct"),
    "scheduler.bind_failures": ("sim_create_p99_s", "super_direct"),
    "scheduler.sim_e2e_s_mean": ("sim_create_p50_s", "super_direct"),
    "virtualkubelet.pods_started": ("sim_pods_per_s", "super_direct"),
    "telemetry.label_lookups": ("host_cpu_s", "vc_stress"),
    "telemetry.spans_finished": ("host_cpu_s", "vc_stress"),
    "core.tenant_operator.tenants_provisioned": ("host_wall_s",
                                                 "tenant_churn"),
    # Micro op costs (workload-independent; measured on a bare
    # Simulation): the workload named is where the op is hottest.
    "objects.pod_roundtrip_us": ("host_cpu_s", "vc_stress"),
    "objects.pod_deep_copy_us": ("host_cpu_s", "vc_stress"),
    "storage.put_us": ("host_cpu_s", "super_direct"),
    "storage.get_us": ("host_cpu_s", "super_direct"),
    "storage.list_1k_us": ("host_wall_s", "tenant_churn"),
    "storage.watch_fanout_100w_us": ("host_cpu_s", "super_direct"),
    "simkernel.timeout_us": ("host_wall_s", "tenant_churn"),
    "clientgo.fairqueue_cycle_us": ("host_cpu_s", "vc_stress"),
    "clientgo.cache_upsert_us": ("host_cpu_s", "vc_stress"),
    "scheduler.filter_100n_us": ("host_cpu_s", "super_direct"),
    "apiserver.create_us": ("host_cpu_s", "super_direct"),
}
