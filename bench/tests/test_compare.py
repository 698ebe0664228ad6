"""Bound / unresolved logic of ``python -m bench compare``."""

import copy

from bench import compare


def entry(median, iqr=0.0):
    return {"median": median, "q1": median - iqr / 2,
            "q3": median + iqr / 2, "n": 5}


def test_within_bound_is_unchanged():
    assert compare.judge(entry(10.0, 0.2), entry(10.5, 0.2),
                         "lower", 0.10)[0] == compare.UNCHANGED


def test_worse_beyond_bound_regresses_in_the_metric_s_direction():
    assert compare.judge(entry(10.0), entry(11.5),
                         "lower", 0.10)[0] == compare.REGRESSED
    assert compare.judge(entry(10.0), entry(11.5),
                         "higher", 0.10)[0] == compare.IMPROVED
    assert compare.judge(entry(100.0), entry(85.0),
                         "higher", 0.10)[0] == compare.REGRESSED


def test_wide_spread_on_either_side_is_unresolved_not_unchanged():
    steady, noisy = entry(10.0, 0.1), entry(10.0, 2.0)
    assert compare.judge(steady, noisy, "lower", 0.10)[0] == \
        compare.UNRESOLVED
    assert compare.judge(noisy, steady, "lower", 0.10)[0] == \
        compare.UNRESOLVED
    # ... even when the medians are far apart.
    assert compare.judge(noisy, entry(20.0, 0.1), "lower", 0.10)[0] == \
        compare.UNRESOLVED


SPEC = {"end_to_end": [
    {"name": "host_wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "events_per_pod", "unit": "count/pod", "better": "lower",
     "bound": 0.05},
]}


def report(wall=5.0, events=75.0, writes=6000, fail_ratio=0.0, seed=0):
    return {"provenance": {"seed": seed}, "scale": "full", "workloads": {
        "vc_stress": {
            "fail_ratio": fail_ratio,
            "end_to_end": {"host_wall_s": entry(wall, 0.1),
                           "events_per_pod": entry(events)},
            "per_layer": {"storage.writes": writes,
                          "objects.self_s": wall / 2},
        }}}


def test_same_commit_twice_passes():
    rows, differences = compare.compare(report(), report(wall=5.1), SPEC)
    assert [row["verdict"] for row in rows] == [compare.UNCHANGED] * 2
    assert not differences
    assert compare.passed(rows, differences)
    assert rows[0]["ratio"] == 5.1 / 5.0 and rows[0]["base"] == 5.0


def test_exact_metric_or_count_that_moves_is_reported():
    # 75 -> 76 is inside the 5 % bound but is not "identical".
    rows, differences = compare.compare(
        report(), report(events=76.0, writes=6001), SPEC)
    assert rows[1]["verdict"] == compare.UNCHANGED
    assert any("events_per_pod" in d for d in differences)
    assert any("storage.writes" in d for d in differences)
    assert not any("objects.self_s" in d for d in differences)
    assert not compare.passed(rows, differences)


def test_counts_are_not_compared_across_seeds():
    rows, differences = compare.compare(
        report(), report(events=76.0, writes=6001, seed=1), SPEC)
    assert not differences


def test_failures_fail_the_comparison():
    rows, differences = compare.compare(report(),
                                        report(fail_ratio=0.001), SPEC)
    assert any("fail_ratio" in d for d in differences)
    assert not compare.passed(rows, differences)


def test_render_has_one_row_per_workload_and_metric():
    base = report()
    new = copy.deepcopy(base)
    rows, differences = compare.compare(base, new, SPEC)
    text = compare.render(rows, differences)
    assert text.count("vc_stress") == 2
    assert "identical" in text
