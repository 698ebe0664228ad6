"""Chaos soak: seeded random fault schedules + full convergence.

The fast smoke test rides in tier-1; the multi-seed soak runs are marked
``soak`` (``pytest -m soak``) and are what the robustness claim rests
on: for every seed, after the fault plan ends the system converges —
every tenant pod matched by an equally-ready super pod, no orphans, the
queues drained, every circuit closed — and the whole run is replayable
bit-for-bit from its seed.
"""

import pytest

from repro.chaos import ChaosEngine, random_plan
from repro.chaos.engine import check_convergence
from repro.config import DEFAULT_CONFIG
from repro.core.env import VirtualClusterEnv
from repro.simkernel.errors import Interrupt

SOAK_SEEDS = (1, 7, 23, 101)


def build_env(seed, tenants=2, pods_per_tenant=2, nodes=3):
    config = DEFAULT_CONFIG.with_overrides(syncer={
        "scan_interval": 5.0, "dws_workers": 4, "uws_workers": 4})
    env = VirtualClusterEnv(seed=seed, config=config, num_virtual_nodes=nodes)
    env.bootstrap()
    handles = []
    for index in range(tenants):
        handle = env.run_coroutine(env.create_tenant(f"tenant-{index}"))
        handles.append(handle)
        for pod_index in range(pods_per_tenant):
            env.run_coroutine(handle.create_pod(f"pod-{pod_index}"))
    for handle in handles:
        env.run_until_pods_ready(
            handle,
            [f"default/pod-{i}" for i in range(pods_per_tenant)],
            timeout=120.0)
    return env, handles


def churn_process(env, handles, period=3.0):
    """Create/delete pods *during* the chaos window so faults land on
    in-flight work, not just a quiesced system."""

    def churn():
        index = 0
        while True:
            try:
                yield env.sim.timeout(period)
                handle = handles[index % len(handles)]
                name = f"churn-{index}"
                index += 1
                try:
                    yield from handle.create_pod(name)
                except Exception:  # injected failure: fine, that's chaos
                    continue
                yield env.sim.timeout(period)
                try:
                    yield from handle.client.delete("pods", name,
                                                    namespace="default")
                except Exception:
                    continue
            except Interrupt:
                return

    return env.sim.spawn(churn(), name="churn")


def run_chaos(seed, horizon, tenants=2, pods_per_tenant=2, churn=True):
    env, handles = build_env(seed, tenants=tenants,
                             pods_per_tenant=pods_per_tenant)
    engine = ChaosEngine(env, seed=seed)
    random_plan(engine, horizon=horizon)
    churner = churn_process(env, handles) if churn else None
    engine.start()
    env.run_for(horizon)
    engine.stop()
    if churner is not None:
        churner.interrupt("chaos over")
    env.run_until(lambda: check_convergence(env)[0], timeout=300.0,
                  poll=1.0)
    return env, engine, check_convergence(env)[1]


class TestChaosSmoke:
    """Fast seeded smoke in tier-1: one short horizon, full verification."""

    def test_smoke_converges_after_faults(self):
        env, engine, detail = run_chaos(seed=3, horizon=20.0, churn=False)
        assert detail["missing"] == []
        assert detail["orphaned"] == []
        assert detail["open_circuits"] == []
        report = engine.report()
        assert report["seed"] == 3
        assert sum(f["injections"] for f in report["faults"]) > 0
        # Worker crashes happened and the watchdog brought workers back.
        assert sum(env.syncer.worker_restarts.values()) > 0
        assert len(env.syncer.worker_processes) == 8


@pytest.mark.soak
class TestChaosSoak:
    @pytest.mark.parametrize("seed", SOAK_SEEDS)
    def test_soak_converges(self, seed):
        env, engine, detail = run_chaos(seed=seed, horizon=60.0, tenants=3,
                                        pods_per_tenant=3)
        ok, final = check_convergence(env)
        assert ok, final
        assert sum(env.syncer.worker_restarts.values()) > 0
        # Post-chaos liveness: brand-new work still flows end to end.
        handle = next(iter(env.tenants.values()))
        env.run_coroutine(handle.create_pod("post-chaos"))
        env.run_until_pods_ready(handle, ["default/post-chaos"],
                                 timeout=120.0)

    def test_same_seed_same_run(self):
        """Determinism: one seed, two fresh builds, identical histories."""
        _env_a, engine_a, _ = run_chaos(seed=11, horizon=30.0)
        _env_b, engine_b, _ = run_chaos(seed=11, horizon=30.0)
        report_a, report_b = engine_a.report(), engine_b.report()
        assert report_a["timeline"] == report_b["timeline"]
        assert report_a["faults"] == report_b["faults"]

    def test_different_seeds_differ(self):
        _env_a, engine_a, _ = run_chaos(seed=1, horizon=30.0)
        _env_b, engine_b, _ = run_chaos(seed=2, horizon=30.0)
        assert (engine_a.report()["timeline"]
                != engine_b.report()["timeline"])
