"""BENCHMARK.json stays within the driver's schema and agrees with the
harness's own tables."""

import re

import pytest

from bench import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def doc():
    return spec.load_spec()


def test_top_level_keys(doc):
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
    assert len(doc["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/")
               and ".." not in part for part in doc["command"])


def test_section_sizes(doc):
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128


def test_names_units_and_keys(doc):
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used twice"


def test_setup_metric_has_the_largest_bound(doc):
    bounds = {m["name"]: m for m in doc["end_to_end"]}
    setup = bounds["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_workloads_match_the_harness(doc):
    from bench.workloads import WORKLOADS

    declared = [w["name"] for w in doc["workloads"]]
    assert declared == list(WORKLOADS)
    for scale in spec.SIZES.values():
        assert set(scale) == set(declared)


def test_exact_metrics_are_declared(doc):
    declared = {m["name"] for m in doc["end_to_end"]}
    assert set(spec.EXACT) <= declared


def test_every_layer_metric_names_what_it_should_move(doc):
    per_layer = [m["name"] for m in doc["per_layer"]]
    assert set(per_layer) == set(spec.MOVES)
    end_to_end = {m["name"] for m in doc["end_to_end"]}
    workloads = {w["name"] for w in doc["workloads"]}
    for name, (metric, workload) in spec.MOVES.items():
        assert metric in end_to_end, name
        assert workload in workloads, name


def test_every_layer_has_self_time_and_share(doc):
    per_layer = {m["name"] for m in doc["per_layer"]}
    for layer in spec.LAYERS:
        assert f"{layer}.self_s" in per_layer
        assert f"{layer}.share" in per_layer
