"""End-to-end tests for the analysis suite against the full system.

Acceptance anchors for the static-analysis PR:

* a full scenario run meets its expectations under every schedule seed
  of the schedule check (same-timestamp ties permuted) — fault-free
  and under the base chaos mix;
* same-seed runs are byte-identical at the store-event level, and a run
  under a different schedule seed is bisected to its exact first
  divergent event with component attribution — by ``analysis bisect``
  and by ``scenarios verify``'s 2x replay;
* the static analyzer CLI exits clean over ``src/`` with the committed
  allowlist (the ``lint``-marked smoke test mirrors
  ``scripts/tier1.sh --lint``).
"""

import functools
from pathlib import Path

import pytest

from repro.analysis import first_divergence
from repro.analysis.__main__ import main as analysis_main
from repro.scenarios import (
    GoldenMismatch,
    ScenarioError,
    load_scenario,
    run_scenario,
)
from repro.scenarios import runner as scenario_runner
from repro.scenarios.__main__ import main as scenarios_main

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE = REPO_ROOT / "scenarios" / "smoke"
# Fault-free default-ish deployment / the base fault mix under load.
QUIET = str(SMOKE / "telemetry_core.yaml")
CHAOS = str(SMOKE / "chaos_base.yaml")


def run_file(path, **kwargs):
    return run_scenario(load_scenario(path), **kwargs)


def schedule_runs(scenario):
    """One run of ``scenario`` per schedule-check seed."""
    return [run_scenario(scenario, schedule=schedule)
            for schedule in scenario_runner.schedule_seeds(scenario)]


@functools.cache
def diverging_schedule():
    """The first schedule seed that makes CHAOS diverge from its FIFO
    replay.

    A schedule whose permutations all commute changes no store event; a
    bounded, deterministic scan keeps the divergence tests on a real
    divergence instead of a hard-coded seed."""
    plain = run_file(CHAOS).recorder
    for schedule in range(16):
        reordered = run_file(CHAOS, schedule=schedule).recorder
        if first_divergence(plain, reordered) is not None:
            return schedule
    raise AssertionError("no schedule in [0, 16) makes CHAOS diverge")


class TestRaceDetectorFullEnv:
    def test_default_config_run_has_zero_conflicts(self):
        for result in schedule_runs(load_scenario(QUIET)):
            assert result.ok, result.failures

    def test_detector_saw_the_whole_deployment(self):
        """The clean verdict covers real work, not an idle sim: dozens
        of processes (syncer workers, kubelets, controllers), and the
        schedules really reordered what they did."""
        scenario = load_scenario(QUIET)
        fifo = run_scenario(scenario)
        reordered = schedule_runs(scenario)
        assert fifo.env.sim._process_count > 50
        assert all(result.digest != fifo.digest for result in reordered)

    def test_second_seed_also_clean(self):
        scenario = load_scenario(QUIET)
        scenario.seed = 7
        for result in schedule_runs(scenario):
            assert result.ok, result.failures


class TestReplayDeterminismFullEnv:
    def test_same_seed_runs_are_byte_identical(self):
        run_a = run_file(QUIET).recorder
        run_b = run_file(QUIET).recorder
        assert first_divergence(run_a, run_b) is None
        assert run_a.final_digest == run_b.final_digest
        assert len(run_a.digests) > 50  # real workload, not an idle sim

    def test_perturbed_run_bisected_to_first_event(self):
        """A reordered run is localized exactly."""
        run_a = run_file(CHAOS).recorder
        run_p = run_file(CHAOS, schedule=diverging_schedule()).recorder
        divergence = first_divergence(run_a, run_p)
        assert divergence is not None
        # Exact localization: every event before the divergence index
        # is identical across runs, the one at it differs.
        index = divergence.index
        assert run_a.digests[:index] == run_p.digests[:index]
        assert run_a.digests[index] != run_p.digests[index]
        assert divergence.component  # attributed to a sim process


class TestChaosIntegration:
    def test_chaos_check_determinism_ok(self):
        """``verify``'s 2x replay took over ``--check-determinism``:
        two same-seed runs of the fault mix match each other and the
        recorded golden."""
        first, second = scenario_runner.verify_scenario(
            load_scenario(CHAOS), runs=2)
        assert first.converged and second.converged
        assert first_divergence(first.recorder, second.recorder) is None

    def test_chaos_detect_races_clean(self):
        """Worker kills, partitions and crashes converge whatever the
        order of same-timestamp work."""
        for result in schedule_runs(load_scenario(CHAOS)):
            assert result.converged
            assert result.ok, result.failures


class TestVerifyDiagnosesNondeterminism:
    """``verify``'s 2x replay is the determinism check: when the second
    replay differs from the first, the failure names the first
    divergent store event and its owning component."""

    @pytest.fixture
    def flaky_replays(self, monkeypatch):
        calls = []
        plain = scenario_runner.run_scenario
        schedule = diverging_schedule()

        def flaky(scenario, **kwargs):
            calls.append(scenario.name)
            if len(calls) > 1:
                kwargs["schedule"] = schedule
            return plain(scenario, **kwargs)

        monkeypatch.setattr(scenario_runner, "run_scenario", flaky)
        return calls

    def test_mismatch_carries_bisected_divergence(self, flaky_replays):
        with pytest.raises(GoldenMismatch) as excinfo:
            scenario_runner.verify_scenario(load_scenario(CHAOS))
        divergence = excinfo.value.divergence
        assert divergence is not None and divergence.component
        assert "first divergent store event" in str(excinfo.value)
        assert repr(divergence.component) in str(excinfo.value)

    def test_verify_cli_prints_diagnosis_and_fails(self, flaky_replays,
                                                   capsys):
        assert scenarios_main(["verify", CHAOS]) == 1
        out = capsys.readouterr().out
        assert "nondeterministic" in out
        assert "first divergent store event" in out and "run B:" in out


class TestScheduleCheck:
    """After its golden replays, ``verify`` runs a ``schedule_check``
    file once per schedule seed and holds each run to the file's expect
    block, not to its digest."""

    @pytest.fixture
    def schedules_run(self, monkeypatch):
        """The schedule of every run ``verify`` makes; a run under a
        schedule in ``planted`` gets one extra failure."""
        seen = []
        planted = []
        plain = scenario_runner.run_scenario

        def recorded(scenario, schedule=None):
            seen.append(schedule)
            result = plain(scenario, schedule=schedule)
            if schedule in planted:
                result.failures.append("planted failure")
            return result

        monkeypatch.setattr(scenario_runner, "run_scenario", recorded)
        return seen, planted

    def test_failure_names_its_schedule_seed(self, schedules_run):
        seen, planted = schedules_run
        scenario = load_scenario(QUIET)
        scenario.schedule_check = True
        seeds = scenario_runner.schedule_seeds(scenario)
        planted.append(seeds[-1])
        with pytest.raises(ScenarioError) as excinfo:
            scenario_runner.verify_scenario(scenario)
        assert seen == [None, None, *seeds]
        assert len(set(seeds)) == scenario_runner.SCHEDULE_SEEDS
        message = str(excinfo.value)
        assert f"under schedule {seeds[-1]}" in message
        assert f"--schedule {seeds[-1]}" in message
        assert "planted failure" in message

    def test_unmarked_file_is_not_schedule_checked(self, schedules_run):
        seen, _planted = schedules_run
        scenario = load_scenario(QUIET)
        assert not scenario.schedule_check
        assert len(scenario_runner.verify_scenario(scenario)) == 2
        assert seen == [None, None]


@pytest.mark.lint
class TestLintCli:
    def test_lint_src_clean_with_committed_allowlist(self):
        """Mirror of ``scripts/tier1.sh --lint``: src/ lints clean."""
        exit_code = analysis_main([
            "check", str(REPO_ROOT / "src"), "--strict",
            "--allowlist", str(REPO_ROOT / "analysis-allowlist.txt")])
        assert exit_code == 0

    def test_lint_finds_planted_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nnow = time.time()\n")
        exit_code = analysis_main(["check", str(bad)])
        assert exit_code == 2
        out = capsys.readouterr().out
        assert "D001" in out

    def test_rules_subcommand_lists_catalog(self, capsys):
        assert analysis_main(["rules"]) == 0
        out = capsys.readouterr().out
        for code in ("D001", "D002", "D003", "D004", "D005", "D006"):
            assert code in out


class TestAnalysisCliRuns:
    def test_race_subcommand_clean_exit(self, capsys):
        """``scenarios run --schedule S`` reproduces one schedule-check
        run; a clean one exits 0."""
        schedule = scenario_runner.schedule_seeds(load_scenario(QUIET))[0]
        assert scenarios_main(["run", QUIET, "--schedule",
                               str(schedule)]) == 0
        assert ": ok" in capsys.readouterr().out

    def test_bisect_subcommand_deterministic_exit(self):
        assert analysis_main(["bisect", QUIET]) == 0

    def test_bisect_subcommand_perturbed_exit(self, capsys):
        exit_code = analysis_main(["bisect", CHAOS, "--schedule",
                                   str(diverging_schedule())])
        assert exit_code == 2
        out = capsys.readouterr().out
        assert "diverg" in out.lower()
        assert "component" in out
