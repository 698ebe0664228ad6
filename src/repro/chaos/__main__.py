"""Seeded chaos run against a small VirtualCluster deployment.

Usage::

    PYTHONPATH=src python -m repro.chaos --seed 7 --report

Builds a deployment (virtual-kubelet nodes, a few tenants with pods),
unleashes a seeded random fault plan over every injection point, then
stops the faults and verifies full convergence.  Exit status 0 means
the system healed; 1 means convergence failed within the timeout.
"""

import argparse
import sys
from dataclasses import replace

from repro.config import DEFAULT_CONFIG
from repro.core.env import VirtualClusterEnv
from repro.metrics import (
    format_apf,
    format_durability,
    format_failover,
    format_hotpath,
    format_swapper,
    format_syncer_health,
    format_telemetry,
)
from repro.telemetry import CORE_FAMILIES

from .engine import (
    ChaosEngine,
    check_convergence,
    durability_plan,
    ha_plan,
    random_plan,
    storm_plan,
)


def optimized_config(base=None, shards=2, batch_max=8):
    """Hot-path optimizations on (DESIGN.md §9): indexes, sharded
    dispatch, batched downward writes."""
    base = base or DEFAULT_CONFIG
    return base.with_overrides(syncer=replace(
        base.syncer, use_cache_indexes=True, dispatch_shards=shards,
        downward_batch_max=batch_max))


def run(seed, tenants=2, pods_per_tenant=3, horizon=40.0, nodes=3,
        report=False, convergence_timeout=300.0, optimized=True,
        kill_leader=False, replicas=2, record=False, detect_races=False,
        kill_store=False, replicas_store=1, wal_corrupt=False,
        apf=False, tenant_storm=False):
    config = optimized_config() if optimized else DEFAULT_CONFIG
    if apf:
        # Admission control + scale-to-zero are opt-in (DESIGN.md §15);
        # without --apf the config object is untouched, so existing
        # chaos seeds stay byte-identical.
        config = config.with_overrides(
            apf=replace(config.apf, enabled=True),
            swapper=replace(config.swapper, enabled=True,
                            idle_threshold=10.0, check_interval=2.0))
    sim = None
    recorder = None
    if record or detect_races:
        from repro.simkernel import Simulation

        sim = Simulation(seed=seed)
    if record:
        # Determinism check: hash every store emission so two same-seed
        # runs can be diffed (and bisected) by repro.analysis.bisect.
        from repro.analysis.bisect import ReplayRecorder

        recorder = ReplayRecorder(sim)
    if detect_races:
        # Vector-clock race detection under the fault mix (worker kills,
        # leader failovers); reachable as env.sim.race_detector.
        from repro.analysis.racedetect import RaceDetector

        RaceDetector(sim)
    env = VirtualClusterEnv(
        seed=seed, config=config, sim=sim, num_virtual_nodes=nodes,
        scan_interval=5.0, dws_workers=4, uws_workers=4,
        syncer_replicas=replicas if kill_leader else 1,
        # None (not 1) keeps the default store construction untouched,
        # so runs without storage flags stay byte-identical to the seed.
        store_replicas=replicas_store if replicas_store > 1 else None,
        store_wal=(True if (wal_corrupt and replicas_store <= 1)
                   else None))
    env.bootstrap()
    handles = [env.run_coroutine(env.create_tenant(f"tenant-{i}"))
               for i in range(tenants)]
    for handle in handles:
        for index in range(pods_per_tenant):
            env.run_coroutine(handle.create_pod(f"pod-{index}"))
    for handle in handles:
        env.run_until_pods_ready(
            handle, [f"default/pod-{i}" for i in range(pods_per_tenant)],
            timeout=120.0)

    engine = ChaosEngine(env, seed=seed)
    random_plan(engine, horizon=horizon)
    if kill_leader:
        # Added after random_plan so the base plan's RNG draws (and so
        # every existing chaos seed) are unchanged.
        ha_plan(engine, horizon=horizon)
    if kill_store or wal_corrupt:
        # Likewise after ha_plan: storage faults extend the draw
        # sequence, never reorder it.
        durability_plan(engine, horizon=horizon, kill=kill_store,
                        mid_txn=kill_store, wal_corrupt=wal_corrupt)
    if tenant_storm:
        # Always appended last, so base chaos seeds keep their draw order.
        storm_plan(engine, horizon=horizon)
    engine.start()
    env.run_for(horizon)
    engine.stop()

    try:
        detail = engine.verify_convergence(timeout=convergence_timeout)
        converged = True
    except TimeoutError:
        _ok, detail = check_convergence(env)
        converged = False

    if report:
        print(engine.format_report())
        print()
        print(format_syncer_health(env.syncer))
        print()
        print(format_hotpath(env.syncer))
        print()
        if env.syncer_ha is not None:
            print(format_failover(env.syncer_ha))
            print()
        super_store = env.super_cluster.api.store
        if hasattr(super_store, "replicas") or getattr(
                super_store, "wal", None) is not None:
            print(format_durability(super_store,
                                    title="Store durability (super)"))
            print()
        if env.super_cluster.apf is not None:
            print(format_apf(env.super_cluster.apf))
            print()
        if env.swapper is not None:
            print(format_swapper(env.swapper))
            print()
        print(format_telemetry(env.sim.telemetry.snapshot(),
                               title="Telemetry (core families)",
                               families=CORE_FAMILIES))
        print()
    if detect_races:
        detector = env.sim.race_detector
        print(detector.report())
        if not detector.ok:
            converged = False
            detail = f"{len(detector.conflicts)} race conflict(s)"
    status = "CONVERGED" if converged else "FAILED TO CONVERGE"
    print(f"seed={seed} horizon={horizon:g}s sim_time={env.sim.now:.1f}s "
          f"-> {status}")
    if not converged:
        print(f"  detail: {detail}")
    if record:
        return converged, engine, recorder
    return converged, engine


def check_determinism(seed, report=False, **kwargs):
    """Run the chaos config twice with replay recording and diff.

    On divergence, prints the bisected first divergent store event and
    component (the self-diagnosis the --report output embeds) plus the
    standalone reproduction command.  Returns True when both runs
    converged AND their store-event streams are identical.
    """
    from repro.analysis.bisect import first_divergence

    converged_a, _engine, run_a = run(seed, report=report, record=True,
                                      **kwargs)
    converged_b, _engine_b, run_b = run(seed, report=False, record=True,
                                        **kwargs)
    divergence = first_divergence(run_a, run_b)
    if divergence is None:
        print(f"determinism check: OK — {len(run_a.digests)} store events "
              f"byte-identical across two seed={seed} chaos runs")
        return converged_a and converged_b
    print(f"determinism check: FAILED — same-seed (seed={seed}) chaos "
          f"runs diverged")
    print(divergence.format())
    print(f"  reproduce standalone: PYTHONPATH=src python -m repro.analysis "
          f"bisect --seed {seed}")
    return False


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="seeded chaos run with convergence verification")
    parser.add_argument("--seed", type=int, default=0,
                        help="chaos + simulation seed (default 0)")
    parser.add_argument("--tenants", type=int, default=2)
    parser.add_argument("--pods", type=int, default=3,
                        help="pods per tenant")
    parser.add_argument("--nodes", type=int, default=3,
                        help="virtual-kubelet nodes")
    parser.add_argument("--horizon", type=float, default=40.0,
                        help="seconds of simulated chaos")
    parser.add_argument("--report", action="store_true",
                        help="print the fault and syncer-health tables")
    parser.add_argument("--no-optimized", action="store_true",
                        help="run with the paper-faithful serialized "
                             "syncer (hot-path optimizations off)")
    parser.add_argument("--kill-leader", action="store_true",
                        help="run the syncer as an HA replica group "
                             "(--replicas) and add the HA fault mix: "
                             "leader kill with standby failover, tenant "
                             "control-plane crash restored from its "
                             "etcd snapshot, and a snapshot rollback")
    parser.add_argument("--replicas", type=int, default=2,
                        help="syncer replicas when --kill-leader is on "
                             "(default 2)")
    parser.add_argument("--kill-store", action="store_true",
                        help="replicate the super cluster's etcd "
                             "(--replicas-store) and add the storage "
                             "durability fault mix: leader kill -9 "
                             "(plain and mid-txn), follower lag with "
                             "stale-read rejection (DESIGN.md §13)")
    parser.add_argument("--replicas-store", type=int, default=None,
                        help="store replicas for the super cluster's "
                             "etcd (WAL streaming + leader election; "
                             "default 3 with --kill-store, else 1)")
    parser.add_argument("--wal-corrupt", action="store_true",
                        help="tear a WAL tail record mid-run; recovery "
                             "must keep the committed prefix and "
                             "resync the rest from the leader")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run the chaos config twice with store-event "
                             "recording; on divergence, bisect to the "
                             "first divergent event (repro.analysis)")
    parser.add_argument("--apf", action="store_true",
                        help="enable APF admission control (tenant "
                             "tiers, shuffle-shard fair queues, 429 + "
                             "Retry-After shedding) and the "
                             "scale-to-zero idle swapper on the super "
                             "cluster (DESIGN.md §15)")
    parser.add_argument("--tenant-storm", action="store_true",
                        help="append the TenantStorm fault: one "
                             "free-tier tenant floods the super "
                             "apiserver with LISTs; APF must shed it "
                             "while other tiers keep converging")
    parser.add_argument("--detect-races", action="store_true",
                        help="run under the vector-clock race detector; "
                             "any unordered cross-process store/cache "
                             "access fails the run")
    args = parser.parse_args(argv)
    if args.replicas < 2:
        parser.error("--replicas must be >= 2")
    if args.replicas_store is None:
        args.replicas_store = 3 if args.kill_store else 1
    if args.replicas_store < 1:
        parser.error("--replicas-store must be >= 1")
    if args.kill_store and args.replicas_store < 2:
        parser.error("--kill-store needs --replicas-store >= 2")
    if args.tenants < 1:
        parser.error("--tenants must be >= 1")
    if args.pods < 0:
        parser.error("--pods must be >= 0")
    if args.nodes < 1:
        parser.error("--nodes must be >= 1")
    if args.horizon <= 0:
        parser.error("--horizon must be > 0")
    if args.check_determinism:
        ok = check_determinism(
            args.seed, tenants=args.tenants, pods_per_tenant=args.pods,
            horizon=args.horizon, nodes=args.nodes, report=args.report,
            optimized=not args.no_optimized, kill_leader=args.kill_leader,
            replicas=args.replicas, kill_store=args.kill_store,
            replicas_store=args.replicas_store,
            wal_corrupt=args.wal_corrupt, apf=args.apf,
            tenant_storm=args.tenant_storm)
        return 0 if ok else 1
    converged, _engine = run(
        args.seed, tenants=args.tenants, pods_per_tenant=args.pods,
        horizon=args.horizon, nodes=args.nodes, report=args.report,
        optimized=not args.no_optimized, kill_leader=args.kill_leader,
        replicas=args.replicas, detect_races=args.detect_races,
        kill_store=args.kill_store, replicas_store=args.replicas_store,
        wal_corrupt=args.wal_corrupt, apf=args.apf,
        tenant_storm=args.tenant_storm)
    return 0 if converged else 1


if __name__ == "__main__":
    sys.exit(main())
