"""End-to-end telemetry: cross-component spans, per-seed determinism,
and the ``python -m repro.telemetry`` export CLI."""

import json
from pathlib import Path

from repro.scenarios import load_scenario, run_scenario
from repro.telemetry import CORE_FAMILIES
from repro.telemetry.__main__ import main
from repro.telemetry.export import check_core_families, render_json

SCENARIO = str(Path(__file__).resolve().parents[2]
               / "scenarios" / "smoke" / "telemetry_core.yaml")


def run_snapshot(seed):
    scenario = load_scenario(SCENARIO)
    scenario.seed = seed
    return run_scenario(scenario).env.sim.telemetry.snapshot()


def test_same_seed_snapshots_byte_identical():
    """Telemetry must be a pure observer: two same-seed runs export
    byte-identical snapshots (instrumentation never touches sim.rng or
    the event schedule).  Per-VC label values embed a hash of the VC
    uid, which each Simulation mints from its own counter."""
    assert render_json(run_snapshot(seed=3)) == \
        render_json(run_snapshot(seed=3))


def test_stress_run_covers_core_families_and_spans():
    snapshot = run_snapshot(seed=1)
    assert check_core_families(snapshot) == []
    # The cross-component span set: request -> syncer -> bind.
    for name in ("apiserver.create", "apiserver.update",
                 "syncer.dws", "syncer.uws", "scheduler.bind"):
        assert snapshot["spans"][name]["count"] > 0, name
    # Span counters mirror the aggregates exactly.
    spans_total = {
        series["labels"]["name"]: series["value"]
        for family in snapshot["families"]
        if family["name"] == "spans_total"
        for series in family["series"]
    }
    for name, agg in snapshot["spans"].items():
        assert spans_total[name] == agg["count"]


def test_cli_writes_parseable_json_with_core_families(tmp_path):
    out = tmp_path / "snapshot.json"
    code = main([SCENARIO, "--format", "json", "--output", str(out),
                 "--check"])
    assert code == 0
    snapshot = json.loads(out.read_text())
    assert check_core_families(snapshot) == []
    names = {family["name"] for family in snapshot["families"]}
    assert set(CORE_FAMILIES) <= names
    # The scenario file itself floors every core family, so `scenarios
    # verify` fails on a silent component without this CLI.
    floored = {bound.metric
               for bound in load_scenario(SCENARIO).expect.telemetry}
    assert set(CORE_FAMILIES) <= floored
