"""Syncer hot-path benchmark: indexes + batching + sharding vs. baseline.

Runs the Pod-provision stress twice with an over-provisioned super
scheduler (so the *syncer* — not the sequential scheduler — is the
pipeline bottleneck, which is the regime DESIGN.md §9 targets).  A
fast scheduler is not a scenario setting, so this benchmark builds its
``VirtualClusterEnv`` directly:

- **baseline**: the paper-faithful serialized syncer (one dispatch lock
  per direction, one apiserver write per object);
- **optimized**: 4 dispatch shards + downward writes batched into 8-op
  transactions.

Both runs look objects up through the caches' secondary indexes, which
are always on.

Asserts the optimized run provisions Pods at >= 2x the baseline
throughput AND that both runs converge to byte-identical super-cluster
etcd state (after canonicalizing run-order artifacts: UIDs from the
global counter, simulated timestamps, resource versions, scheduler
placement, and status blocks; Events are excluded as best-effort
observability objects).
"""

import json

from benchmarks.conftest import NODES, PODS_SWEEP, RATE, SETTLE, TENANTS, once

from repro.config import DEFAULT_CONFIG
from repro.core import VirtualClusterEnv
from repro.core.crd import cluster_prefix
from repro.workloads import LoadGenerator, TenantLoadPattern, even_split

THROUGHPUT_GAIN_FLOOR = 2.0
_SCRUB_ANNOTATIONS = ("tenancy.x-k8s.io/tenant-uid",)


def _hotpath_config(optimized):
    """The shared fast-scheduler regime, with the syncer flags toggled."""
    return DEFAULT_CONFIG.with_overrides(
        scheduler={"service_time": 0.0002, "service_jitter": 0.00002},
        syncer={"dispatch_shards": 4 if optimized else 1,
                "downward_batch_max": 8 if optimized else 1},
    )


PODS = PODS_SWEEP[-1]
_memo = {}


def _run(optimized):
    """(env, Pods/s) of one run, memoized per setting."""
    key = bool(optimized)
    if key not in _memo:
        env = VirtualClusterEnv(config=_hotpath_config(optimized),
                                num_virtual_nodes=NODES)
        env.bootstrap()
        tenants = [env.run_coroutine(env.create_tenant(f"tenant-{i:03d}"))
                   for i in range(TENANTS)]
        env.run_for(SETTLE)
        # 5x the Fig. 9 pacing so arrival never caps the optimized run;
        # the syncer dispatch path is the limiter under test.
        rate = 5 * RATE / TENANTS
        jobs = [(tenant.client,
                 TenantLoadPattern(count, mode="paced", rate=rate,
                                   name_prefix=f"p{index:03d}"))
                for index, (tenant, count)
                in enumerate(zip(tenants, even_split(PODS, TENANTS)))]
        start = env.sim.now
        env.run_coroutine(LoadGenerator(env.sim).run_all(jobs),
                          name="loadgen")
        env.run_until(
            lambda: env.syncer.trace_store.completed_count >= PODS,
            timeout=1800.0)
        _memo[key] = env, PODS / (env.sim.now - start)
    return _memo[key]


def _scrub(value):
    """Drop fields that legitimately differ between two identical runs."""
    meta = value.get("metadata", {})
    for field in ("uid", "creationTimestamp", "resourceVersion"):
        meta.pop(field, None)
    annotations = meta.get("annotations") or {}
    for annotation in _SCRUB_ANNOTATIONS:
        annotations.pop(annotation, None)
    value.pop("status", None)
    spec = value.get("spec")
    if isinstance(spec, dict):
        spec.pop("nodeName", None)
    string_data = value.get("stringData")
    if isinstance(string_data, dict):
        # Kubeconfig secrets embed a cert hash derived from the VC uid.
        string_data.pop("cert-hash", None)
    return value


def canonical_super_state(env):
    """key -> canonical serialized bytes of the converged super store.

    The per-VC namespace prefix embeds a hash of the VC's uid, and uids
    come from a process-global counter — so the *same* logical object
    gets a different prefix in two sequential runs.  Rewrite each run's
    prefixes to a stable per-tenant token before comparing.
    """
    prefixes = {cluster_prefix(reg.vc): f"vc({tenant})"
                for tenant, reg in env.syncer.tenants.items()}

    def normalize(text):
        for prefix, token in prefixes.items():
            text = text.replace(prefix, token)
        return text

    store = env.super_cluster.api.store
    state = {}
    for key in sorted(store._data):
        if key.startswith("/registry/events/"):
            continue
        raw, _revision = store.get(key)
        state[normalize(key)] = normalize(
            json.dumps(_scrub(raw), sort_keys=True))
    return state


class TestSyncerHotpath:
    def test_optimized_throughput_at_least_2x(self, benchmark):
        _env, base = _run(optimized=False)
        _env, optimized = once(benchmark, lambda: _run(optimized=True))
        gain = optimized / base
        assert gain >= THROUGHPUT_GAIN_FLOOR, (
            f"hot-path gain {gain:.2f}x < {THROUGHPUT_GAIN_FLOOR}x "
            f"(baseline {base:.0f}/s, optimized {optimized:.0f}/s)")

    def test_optimizations_used(self):
        stats = _run(optimized=True)[0].syncer.stats()
        assert stats["dispatch_shards"] == 4
        assert stats["downward"]["shards"] == 4
        batching = stats["downward_batching"]
        assert batching["enabled"]
        assert batching["largest_batch"] > 1
        assert batching["ops_batched"] >= PODS

    def test_converged_etcd_state_identical(self):
        base_state = canonical_super_state(_run(optimized=False)[0])
        opt_state = canonical_super_state(_run(optimized=True)[0])
        assert set(base_state) == set(opt_state), (
            "key sets differ: only-baseline="
            f"{sorted(set(base_state) - set(opt_state))[:5]} "
            f"only-optimized={sorted(set(opt_state) - set(base_state))[:5]}")
        different = [key for key in base_state
                     if base_state[key] != opt_state[key]]
        assert not different, (
            f"{len(different)} keys diverge, first: {different[0]}\n"
            f"  baseline:  {base_state[different[0]]}\n"
            f"  optimized: {opt_state[different[0]]}")
