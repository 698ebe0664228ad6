"""Storage durability benchmark: crash storm, MTTR, zero-loss (§13).

Runs the same paced multi-tenant Pod workload twice against a
3-replica super-cluster store (WAL streaming + leader election):

- **nofault**: nobody dies (the reference state);
- **storm**: a seeded crash storm on the storage leader — a plain
  kill -9 mid-submission, then an *armed mid-transaction* kill -9
  (the leader dies between two WAL appends of one multi-op txn), each
  followed by the victim restarting from its own write-ahead log.

Asserts (DESIGN.md §13, EXPERIMENTS.md "storage durability" row):

- every failover record shows **zero committed-write loss** — the new
  leader's state covers exactly the victim's durable WAL image;
- storage MTTR (kill -> fenced promotion) stays within the store
  lease budget, far under the syncer's scan period;
- the mid-txn kill commits a *prefix* of the transaction: ops applied
  before the crash are durable everywhere, ops after it happened
  nowhere, and the client saw one retryable failure;
- the converged super store of the storm run is byte-identical to the
  no-fault run — crash/recovery/failover leave no artifacts.
"""

import json

import pytest

from benchmarks.conftest import once

from repro.apiserver.errors import ServerUnavailable
from repro.config import DEFAULT_CONFIG
from repro.core import VirtualClusterEnv
from repro.core.crd import cluster_prefix
from repro.storage import StoreUnavailable

SCAN_INTERVAL = 15.0
NUM_TENANTS = 3
PODS_PER_TENANT = 20
SUBMIT_PERIOD = 1.0
STORE_REPLICAS = 3
KILL_AT = 8.0                # plain leader kill -9
RESTART_AFTER = 6.0          # victim comes back from its WAL
MIDTXN_AT = 22.0             # armed mid-txn kill
MIDTXN_OPS = 4               # ops in the doomed transaction
MIDTXN_SURVIVORS = 2         # ops applied (and durable) before death
TIMEOUT = 600.0
# Store lease is 3 s (StorageDurability defaults); election + fencing
# lands well inside two lease periods.
MTTR_BUDGET = 2 * 3.0 + 1.0

_SCRUB_ANNOTATIONS = ("tenancy.x-k8s.io/tenant-uid",)


class DurabilityResult:
    def __init__(self, env, latencies, midtxn):
        self.env = env
        self.latencies = latencies
        self.midtxn = midtxn

    @property
    def group(self):
        return self.env.super_cluster.store_group

    @property
    def recoveries(self):
        return list(self.group.recoveries)


def _run_scenario(mode):
    env = VirtualClusterEnv(
        seed=0, num_virtual_nodes=5, config=DEFAULT_CONFIG.with_overrides(
            syncer={"scan_interval": SCAN_INTERVAL},
            storage={"replicas": STORE_REPLICAS}))
    env.bootstrap()
    tenants = [env.run_coroutine(env.create_tenant(f"tenant-{index}"))
               for index in range(NUM_TENANTS)]

    latencies = {}
    midtxn = {"raised": False, "committed": [], "lost": []}

    def pod_flow(tenant, name):
        submitted = env.sim.now
        yield from tenant.create_pod(name)
        while True:
            pod = yield from tenant.get_pod(name)
            if pod is not None and pod.status.phase == "Running":
                latencies[(tenant.name, name)] = env.sim.now - submitted
                return
            yield env.sim.timeout(0.25)

    def submitter(tenant):
        for index in range(PODS_PER_TENANT):
            env.sim.spawn(pod_flow(tenant, f"pod-{index}"),
                          name=f"{tenant.name}-pod-{index}")
            yield env.sim.timeout(SUBMIT_PERIOD)

    def storm():
        group = env.super_cluster.store_group
        # Plain kill -9 of the storage leader mid-submission.
        yield env.sim.timeout(KILL_AT)
        victim = group.kill_leader(reason="storm")
        yield env.sim.timeout(RESTART_AFTER)
        group.restart_replica(victim)

        # Armed mid-txn kill: the (new) leader dies between WAL
        # appends of a single multi-op transaction.
        yield env.sim.timeout(MIDTXN_AT - KILL_AT - RESTART_AFTER)
        keys = [f"/registry/configmaps/kube-system/storm-{index}"
                for index in range(MIDTXN_OPS)]
        group.arm_kill(MIDTXN_SURVIVORS)
        try:
            group.store.txn([
                lambda key=key: group.leader.store.create(key, {"storm": 1})
                for key in keys
            ])
        except (StoreUnavailable, ServerUnavailable):
            # Inside an apiserver the store's unavailable factory is
            # swapped for the retryable ServerUnavailable.
            midtxn["raised"] = True
        yield env.sim.timeout(RESTART_AFTER)  # failover + settle
        for key in keys:
            value, _revision = group.store.try_get(key)
            (midtxn["committed"] if value is not None
             else midtxn["lost"]).append(key)
        # Remove the storm's own writes so the converged state stays
        # comparable with the no-fault run.
        for key in midtxn["committed"]:
            group.store.delete(key)
        group.restart_replica()

    for tenant in tenants:
        env.sim.spawn(submitter(tenant), name=f"submit-{tenant.name}")
    if mode == "storm":
        env.sim.spawn(storm(), name="crash-storm")

    total = NUM_TENANTS * PODS_PER_TENANT
    env.run_until(lambda: len(latencies) == total, timeout=TIMEOUT)
    env.run_for(2 * SCAN_INTERVAL)  # let the syncer fully converge
    return DurabilityResult(env, latencies, midtxn)


_memo = {}


def _run(mode):
    if mode not in _memo:
        _memo[mode] = _run_scenario(mode)
    return _memo[mode]


def _scrub(value):
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
        string_data.pop("cert-hash", None)
    return value


def canonical_super_state(result):
    """key -> canonical serialized bytes of the converged super store
    (same normalization as benchmarks/test_failover_mttr.py)."""
    env = result.env
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
        if key.startswith("/registry/leases/"):
            continue  # leases legitimately differ per scenario
        raw, _revision = store.get(key)
        state[normalize(key)] = normalize(
            json.dumps(_scrub(raw), sort_keys=True))
    return state


@pytest.mark.durability
class TestDurabilityStorm:
    def test_zero_committed_write_loss_across_storm(self, benchmark):
        storm = once(benchmark, lambda: _run("storm"))
        recoveries = storm.recoveries
        assert len(recoveries) >= 2, (
            f"expected both storm kills to fail over, got {recoveries}")
        for record in recoveries:
            assert record["lost_writes"] == 0, (
                f"{record['victim']} lost {record['lost_writes']} "
                f"committed writes (reason={record['reason']})")

    def test_recovery_mttr_within_lease_budget(self):
        for record in _run("storm").recoveries:
            assert record["mttr"] is not None, (
                f"{record['victim']} never recovered: {record}")
            assert record["mttr"] < MTTR_BUDGET, (
                f"storage MTTR {record['mttr']:.2f}s over budget "
                f"{MTTR_BUDGET:.1f}s")
            assert record["mttr"] < SCAN_INTERVAL

    def test_mid_txn_kill_commits_exact_prefix(self):
        midtxn = _run("storm").midtxn
        assert midtxn["raised"], "the doomed txn did not fail retryably"
        assert len(midtxn["committed"]) == MIDTXN_SURVIVORS
        assert len(midtxn["lost"]) == MIDTXN_OPS - MIDTXN_SURVIVORS
        # The prefix is a *prefix*: ops commit in order.
        committed_indexes = sorted(
            int(key.rsplit("-", 1)[1]) for key in midtxn["committed"])
        assert committed_indexes == list(range(MIDTXN_SURVIVORS))

    def test_converged_state_identical_to_no_fault_run(self):
        reference = canonical_super_state(_run("nofault"))
        storm = canonical_super_state(_run("storm"))
        assert set(reference) == set(storm), (
            "key sets differ: only-nofault="
            f"{sorted(set(reference) - set(storm))[:5]} "
            f"only-storm={sorted(set(storm) - set(reference))[:5]}")
        different = [key for key in reference
                     if reference[key] != storm[key]]
        assert not different, (
            f"{len(different)} keys diverge after the storm, first: "
            f"{different[0]}\n  nofault: {reference[different[0]]}\n"
            f"  storm:   {storm[different[0]]}")

    def test_durability_metrics_emitted(self):
        telemetry = _run("storm").env.sim.telemetry.snapshot()
        values = {}
        for family in telemetry["families"]:
            total = sum(series.get("value", 0)
                        for series in family.get("series", []))
            values[family["name"]] = total
        assert values.get("wal_appends_total", 0) > 0
        assert values.get("store_recoveries_total", 0) >= 2
        assert values.get("wal_fsyncs_total", 0) > 0
