"""Golden-corpus conformance: every scenario replays to its digest.

Parameterized over ``scenarios/corpus/*.yaml`` (the behavioural
reference) and ``scenarios/smoke/*.yaml`` (the chaos, HA, durability,
overload and telemetry gates).  Each test runs the scenario once and
asserts:

- the converged-state sha256 digest equals the recorded golden (and the
  store-event count matches — a cheap first differentiator when it
  doesn't);
- the declared expectations hold (convergence, pod floors, telemetry
  bounds, race cleanliness for race-checked scenarios);
- every fault the file declares was injected at least once — a gate
  whose faults never fire proves nothing.

Everything here carries the ``scenario`` marker (excluded from the
tier-1 auto-marking); the scenarios whose YAML says ``tier1: true``
additionally run in the tier-1 gate, giving it a fast conformance
smoke.  The determinism double-replay lives in ``python -m
repro.scenarios verify`` (and ``scripts/tier1.sh --smoke``); here each
file runs once to keep plain ``pytest`` wall-clock sane.
"""

import os

import pytest

from repro.chaos import FAULTS
from repro.scenarios import corpus_paths, load_scenario, run_scenario
from repro.storage.etcd import EtcdStore

SCENARIOS_DIR = os.path.abspath(os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "scenarios"))
CORPUS_DIR = os.path.join(SCENARIOS_DIR, "corpus")
SMOKE_DIR = os.path.join(SCENARIOS_DIR, "smoke")


def _load_all(*directories):
    return [load_scenario(path) for directory in directories
            for path in corpus_paths(directory)]


def _corpus_params():
    params = []
    for directory in (CORPUS_DIR, SMOKE_DIR):
        for path in corpus_paths(directory):
            scenario = load_scenario(path)
            marks = [pytest.mark.scenario]
            if scenario.tier1:
                marks.append(pytest.mark.tier1)
            params.append(pytest.param(path, id=scenario.name,
                                       marks=tuple(marks)))
    return params


@pytest.mark.parametrize("path", _corpus_params())
def test_scenario_matches_golden(path):
    scenario = load_scenario(path)
    assert scenario.golden is not None, (
        f"{os.path.basename(path)} has no golden block; run "
        f"'python -m repro.scenarios record {path}'")
    result = run_scenario(scenario)
    assert result.failures == [], (
        f"{scenario.name} failed expectations: {result.failures}")
    assert result.store_events == scenario.golden.store_events, (
        f"{scenario.name} emitted {result.store_events} store events, "
        f"golden recorded {scenario.golden.store_events}")
    assert result.digest == scenario.golden.digest, (
        f"{scenario.name} diverged from its golden digest "
        f"(recorded {scenario.golden.digest[:16]}…, replayed "
        f"{result.digest[:16]}…); if intentional, re-record with "
        f"'python -m repro.scenarios record {path}'")
    idle = [entry["fault"] for entry in (result.chaos_report or {})
            .get("faults", ()) if entry["injections"] < 1]
    assert not idle, f"{scenario.name}: declared faults never fired: {idle}"


@pytest.mark.scenario
def test_corpus_covers_required_axes():
    """The corpus must keep exercising every axis the DSL claims."""
    scenarios = _load_all(CORPUS_DIR)
    assert len(scenarios) >= 10
    kinds = {w.shape.kind for s in scenarios
             for t in s.tenants for w in t.workloads}
    assert {"constant", "diurnal", "flash-crowd", "burst", "sequential",
            "rolling-upgrade"} <= kinds
    assert any(p.link is not None for s in scenarios
               for p in s.topology.pools), "no edge-link scenario"
    assert any(p.elastic is not None for s in scenarios
               for p in s.topology.pools), "no elastic-pool scenario"
    assert any(s.chaos for s in scenarios), "no chaos-overlay scenario"
    assert any(s.race_check for s in scenarios), "no race-checked scenario"
    assert sum(1 for s in scenarios if s.tier1) >= 3
    assert all(s.golden is not None for s in scenarios)
    scheduled = {entry.fault
                 for s in scenarios + _load_all(SMOKE_DIR)
                 for entry in s.chaos}
    assert scheduled == set(FAULTS), (
        f"faults no scenario schedules: {sorted(set(FAULTS) - scheduled)}")


@pytest.mark.scenario
@pytest.mark.tier1
def test_smoke_faults_open_while_load_is_running():
    """A smoke's faults must have traffic to bite: every statically
    known window opens before the file's last workload stops
    submitting (the parent's smokes faulted an idle deployment)."""
    for scenario in _load_all(SMOKE_DIR):
        load_end = max(w.start + w.shape.window()
                       for t in scenario.tenants for w in t.workloads)
        for index, entry in enumerate(scenario.chaos):
            for start, _end in entry.schedule.windows() or ():
                assert start < load_end, (
                    f"{scenario.name}: chaos[{index}] ({entry.fault}) "
                    f"opens at t={start:g}s, after the load ends at "
                    f"t={load_end:g}s")
        assert scenario.expect.telemetry, (
            f"{scenario.name}: a smoke needs expect.telemetry floors")
        assert scenario.tier1 and scenario.golden is not None


@pytest.mark.scenario
@pytest.mark.durability
@pytest.mark.tier1
def test_durability_smoke_kill_lands_inside_a_multi_op_txn(monkeypatch):
    """The armed kill -9 must fire *between two ops of one multi-op
    transaction* — the worst crash point for atomicity, which the
    parent's idle smoke never reached (mid_txn_kills=0) — and the
    store group must still recover with zero committed-write loss."""
    killed_in = []
    plain_txn = EtcdStore.txn

    def txn(self, ops):
        armed = self._kill_after_ops
        try:
            return plain_txn(self, ops)
        except Exception:
            if not self.available and armed is not None:
                killed_in.append((armed, len(ops)))
            raise

    monkeypatch.setattr(EtcdStore, "txn", txn)
    result = run_scenario(load_scenario(
        os.path.join(SMOKE_DIR, "durability.yaml")))
    assert result.failures == []
    counters = {entry["fault"]: entry
                for entry in result.chaos_report["faults"]}
    assert counters["killstore:midtxn"]["mid_txn_kills"] >= 1
    assert counters["killstore:leader"]["stores_killed"] >= 1
    assert result.telemetry["store_recoveries_total"] >= 2
    # Applied ops before the kill: at least one, fewer than the txn.
    assert killed_in and all(0 < applied < ops
                             for applied, ops in killed_in), killed_in
    store = result.env.super_cluster.api.store
    assert [r["lost_writes"] for r in store.stats()["recoveries_log"]] \
        == [0, 0]
