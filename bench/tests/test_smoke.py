"""End to end at --scale smoke: every declared metric comes out, for
every workload, and the checks hold."""

import json
import shutil
import subprocess
import sys

import pytest

from bench import harness, spec


@pytest.fixture(scope="module")
def doc():
    return spec.load_spec()


@pytest.fixture(scope="module")
def report():
    return harness.run_all(seed=1, scale="smoke", reps=2)


def test_every_workload_reports_every_end_to_end_metric(doc, report):
    declared = [m["name"] for m in doc["end_to_end"]]
    assert list(report["workloads"]) == [w["name"] for w in doc["workloads"]]
    for name, entry in report["workloads"].items():
        assert list(entry["end_to_end"]) == declared, name
        for metric, value in entry["end_to_end"].items():
            assert value["median"] > 0, (name, metric)
            assert value["n"] == 2


def test_every_workload_reports_every_per_layer_metric(doc, report):
    declared = {m["name"] for m in doc["per_layer"]}
    for name, entry in report["workloads"].items():
        assert declared <= set(entry["per_layer"]), (
            name, declared - set(entry["per_layer"]))
        shares = sum(entry["per_layer"][f"{layer}.share"]
                     for layer in spec.LAYERS)
        assert shares + entry["per_layer"]["harness.share"] == \
            pytest.approx(1.0)
        assert entry["per_layer"]["trace.overhead_ratio"] > 1.0


def test_checks_hold_and_exact_metrics_repeat(report):
    for name, entry in report["workloads"].items():
        assert entry["problems"] == [], name
        assert entry["failed"] == 0 and entry["fail_ratio"] == 0
        for metric in spec.EXACT:
            assert len(set(entry["end_to_end"][metric]["values"])) == 1


def test_layers_show_up_where_predicted(report):
    layers = {name: entry["per_layer"]
              for name, entry in report["workloads"].items()}
    # The bypass workload gives the syncer nothing to reconcile.
    assert layers["super_direct"]["core.syncer.items_down"] == 0
    assert layers["vc_stress"]["core.syncer.items_down"] > 0
    # Only the hot-path workload batches and logs.
    assert layers["vc_hotpath_wal"]["storage.wal_appends"] > 0
    assert layers["vc_hotpath_wal"]["storage.txn_ops"] > 0
    assert layers["vc_stress"]["storage.wal_appends"] == 0
    assert layers["tenant_churn"][
        "simkernel.idle_events_per_tenant_sim_s"] > 0
    assert layers["scenario_corpus"]["scenarios.share"] > 0
    assert layers["vc_stress"]["scenarios.share"] == 0


def test_trace_documents_are_written(report):
    for name in report["workloads"]:
        with open(spec.OUT / f"trace_{name}.json", encoding="utf-8") as f:
            trace = json.load(f)
        assert trace["workload"] == name
        assert trace["profile_total_s"] == pytest.approx(
            trace["traced_wall_s"], rel=0.02)
        assert trace["edges"] and trace["top_functions"]


def test_driver_entry_point_prints_the_contract_object(doc):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload",
         "super_direct", "--seed", "5", "--seconds", "1", "--trace", "0",
         "--scale", "smoke"],
        cwd=spec.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 200
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in doc["end_to_end"]}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(spec.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload",
         "vc_stress", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
