"""End-to-end tests for the analysis suite against the full system.

Acceptance anchors for the static-analysis PR:

* a full scenario run under the race detector reports **zero**
  conflicts (every cross-control-plane write is CAS-serialized or
  event-ordered) — fault-free and under the base chaos mix;
* same-seed runs are byte-identical at the store-event level, and a
  deliberately perturbed run is bisected to its exact first divergent
  event with component attribution — by ``analysis bisect`` and by
  ``scenarios verify``'s 2x replay;
* the static analyzer CLI exits clean over ``src/`` with the committed
  allowlist (the ``lint``-marked smoke test mirrors
  ``scripts/tier1.sh --lint``).
"""

import functools
from pathlib import Path

import pytest

from repro.analysis import first_divergence
from repro.analysis.__main__ import main as analysis_main
from repro.scenarios import GoldenMismatch, load_scenario, run_scenario
from repro.scenarios import runner as scenario_runner
from repro.scenarios.__main__ import main as scenarios_main

REPO_ROOT = Path(__file__).resolve().parents[2]
SMOKE = REPO_ROOT / "scenarios" / "smoke"
# Fault-free default-ish deployment / the base fault mix under load.
QUIET = str(SMOKE / "telemetry_core.yaml")
CHAOS = str(SMOKE / "chaos_base.yaml")


def run_file(path, **kwargs):
    return run_scenario(load_scenario(path), **kwargs)


@functools.cache
def diverging_swap():
    """The first dispatch index K >= 200 whose ``perturb_swap`` makes
    CHAOS diverge from its plain replay.

    Many adjacent dispatches commute (swapping them changes no store
    event), and which ones do shifts whenever the kernel's event count
    does; a bounded, deterministic scan keeps the perturbation tests on a
    real divergence instead of a hard-coded index."""
    plain = run_file(CHAOS).recorder
    for swap in range(200, 300):
        perturbed = run_file(CHAOS, perturb_swap=swap).recorder
        if first_divergence(plain, perturbed) is not None:
            return swap
    raise AssertionError("no swap in [200, 300) makes CHAOS diverge")


class TestRaceDetectorFullEnv:
    def test_default_config_run_has_zero_conflicts(self):
        detector = run_file(QUIET, race_check=True).detector
        assert detector.ok, detector.report()
        assert detector.conflicts == []

    def test_detector_saw_the_whole_deployment(self):
        """The clean verdict covers real work, not an idle sim."""
        detector = run_file(QUIET, race_check=True).detector
        # Dozens of processes registered (syncer workers, kubelets,
        # controllers) — a handful would mean instrumentation fell off.
        assert len(detector._clocks) > 50

    def test_second_seed_also_clean(self):
        scenario = load_scenario(QUIET)
        scenario.seed = 7
        detector = run_scenario(scenario, race_check=True).detector
        assert detector.ok, detector.report()


class TestReplayDeterminismFullEnv:
    def test_same_seed_runs_are_byte_identical(self):
        run_a = run_file(QUIET).recorder
        run_b = run_file(QUIET).recorder
        assert first_divergence(run_a, run_b) is None
        assert run_a.final_digest == run_b.final_digest
        assert len(run_a.digests) > 50  # real workload, not an idle sim

    def test_perturbed_run_bisected_to_first_event(self):
        """Flipping one dispatch order mid-run is localized exactly."""
        run_a = run_file(CHAOS).recorder
        run_p = run_file(CHAOS, perturb_swap=diverging_swap()).recorder
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
        """Worker kills, partitions and crashes add no unordered
        cross-process access."""
        result = run_file(CHAOS, race_check=True)
        assert result.converged
        assert result.detector.ok, result.detector.report()


class TestVerifyDiagnosesNondeterminism:
    """``verify``'s 2x replay is the determinism check: when the second
    replay differs from the first, the failure names the first
    divergent store event and its owning component."""

    @pytest.fixture
    def flaky_replays(self, monkeypatch):
        calls = []
        plain = scenario_runner.run_scenario
        swap = diverging_swap()

        def flaky(scenario, **kwargs):
            calls.append(scenario.name)
            if len(calls) > 1:
                kwargs["perturb_swap"] = swap
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
    def test_race_subcommand_clean_exit(self):
        assert analysis_main(["race", QUIET]) == 0

    def test_bisect_subcommand_deterministic_exit(self):
        assert analysis_main(["bisect", QUIET]) == 0

    def test_bisect_subcommand_perturbed_exit(self, capsys):
        exit_code = analysis_main(["bisect", CHAOS, "--perturb",
                                   str(diverging_swap())])
        assert exit_code == 2
        out = capsys.readouterr().out
        assert "diverg" in out.lower()
        assert "component" in out
