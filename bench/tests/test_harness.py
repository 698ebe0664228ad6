"""Parent-side checks that need no child process."""

import os

from bench import harness, workloads


def unit(p99=2.5, digests=None, problems=()):
    return {"end_to_end": {"events_per_pod": 75.0, "sim_create_p50_s": 1.9,
                           "sim_create_p99_s": p99, "sim_pods_per_s": 260.0,
                           "host_wall_s": 5.0},
            "digests": digests, "problems": list(problems)}


def test_repetitions_that_agree_pass():
    assert harness.check_units([unit(), unit(), unit()]) == []


def test_a_simulated_statistic_that_differs_is_nondeterministic():
    problems = harness.check_units([unit(), unit(p99=2.5000001)])
    assert len(problems) == 1 and problems[0].startswith("nondeterministic")
    assert "sim_create_p99_s" in problems[0]


def test_scenario_digests_must_agree():
    problems = harness.check_units([unit(digests={"a": "1"}),
                                    unit(digests={"a": "2"})])
    assert problems and "digests" in problems[0]


def test_child_env_is_scrubbed(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_LEGACY", "1")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_SCALE", "paper")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    env = harness.child_env()
    assert not {"REPRO_KERNEL_LEGACY", "REPRO_WORKERS",
                "REPRO_SCALE"} & set(env)
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"].split(os.pathsep)[0].endswith("src")
    # The ablation flag is harness-only and explicit.
    assert harness.child_env({"REPRO_KERNEL_LEGACY": "1"})[
        "REPRO_KERNEL_LEGACY"] == "1"


def test_quartiles_follow_statistics_quantiles():
    q1, median, q3 = harness.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, median, q3) == (1.5, 3.0, 4.5)
    assert harness.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_seeded_split_keeps_the_total_and_depends_on_the_seed():
    import random

    splits = [workloads.seeded_split(random.Random(seed), 1000, 20)
              for seed in range(5)]
    assert all(sum(split) == 1000 and min(split) > 0 for split in splits)
    assert len({tuple(split) for split in splits}) == 5
    assert splits[0] == workloads.seeded_split(random.Random(0), 1000, 20)
