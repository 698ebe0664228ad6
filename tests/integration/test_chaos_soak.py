"""Chaos soak: the base fault mix of ``scenarios/smoke/chaos_base.yaml``
through ``run_scenario``, then full convergence.

The fast smoke test rides in tier-1 and runs the file as written.  The
multi-seed soak runs are marked ``soak`` (``pytest -m soak``) and are
what the robustness claim rests on: the same mix at other seeds (each
seed draws its own random windows and its own run), with a third tenant
rolling its fleet (delete + recreate) through the fault windows.  For
every seed, after the fault plan ends the system converges — every
tenant pod matched by an equally-ready super pod, no orphans, the queues
drained, every circuit closed — new work still flows end to end, and
the whole run is replayable bit-for-bit from its seed.
"""

import os

import pytest

from repro.scenarios import (
    RollingUpgradeShape,
    TenantSpec,
    WorkloadSpec,
    load_scenario,
    run_scenario,
)

CHAOS_BASE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                          "scenarios", "smoke", "chaos_base.yaml")

SOAK_SEEDS = (1, 7, 23, 101)


def soak_scenario(seed):
    """``chaos_base`` at ``seed``, plus a tenant whose fleet rolls
    through six delete + recreate waves while the faults are open."""
    scenario = load_scenario(CHAOS_BASE)
    scenario.seed = seed
    scenario.golden = None
    scenario.tenants.append(TenantSpec(name="gamma", workloads=[
        WorkloadSpec(name="fleet", start=1.0, shape=RollingUpgradeShape(
            count=6, startup_rate=2.0, batch=2, interval=4.0, waves=6,
            first_wave=4.0))]))
    return scenario.validate()


def assert_healed(result):
    """Converged with nothing missing, orphaned or open, and the
    watchdog brought every killed worker back."""
    detail = result.convergence_detail
    assert result.converged, detail
    assert detail["missing"] == []
    assert detail["orphaned"] == []
    assert detail["open_circuits"] == []
    assert sum(f["injections"] for f in result.chaos_report["faults"]) > 0
    syncer = result.env.syncer
    assert sum(syncer.worker_restarts.values()) > 0
    assert len(syncer.worker_processes) == 8


class TestChaosSmoke:
    """Fast seeded smoke in tier-1: the file as written, full checks."""

    def test_smoke_converges_after_faults(self):
        result = run_scenario(load_scenario(CHAOS_BASE))
        assert result.ok, result.failures
        assert_healed(result)


@pytest.mark.soak
class TestChaosSoak:
    @pytest.mark.parametrize("seed", SOAK_SEEDS)
    def test_soak_converges(self, seed):
        result = run_scenario(soak_scenario(seed))
        assert result.ok, result.failures
        assert_healed(result)
        # Post-chaos liveness: brand-new work still flows end to end.
        env = result.env
        handle = env.tenants[sorted(env.tenants)[0]]
        env.run_coroutine(handle.create_pod("post-chaos"))
        env.run_until_pods_ready(handle, ["default/post-chaos"],
                                 timeout=120.0)

    def test_same_seed_same_run(self):
        """Determinism: one seed, two fresh builds, identical histories."""
        first = run_scenario(soak_scenario(11))
        second = run_scenario(soak_scenario(11))
        assert first.digest == second.digest
        assert (first.chaos_report["timeline"]
                == second.chaos_report["timeline"])
        assert first.chaos_report["faults"] == second.chaos_report["faults"]

    def test_different_seeds_differ(self):
        first = run_scenario(soak_scenario(1))
        second = run_scenario(soak_scenario(2))
        assert first.digest != second.digest
        assert (first.chaos_report["timeline"]
                != second.chaos_report["timeline"])
