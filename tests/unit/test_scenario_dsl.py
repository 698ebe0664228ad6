"""Unit tests for scenario DSL validation and compilation.

The DSL's contract is that *every* authoring mistake fails eagerly with
a message naming the YAML path, the offending value, and what would be
accepted — never a mid-run stack trace.  These tests pin that contract
for the error classes ISSUE-level users actually hit (unknown shape,
duplicate names, negative rates, overlapping chaos windows, …) plus the
pure-compilation semantics the runner depends on.
"""

import pytest

from repro.scenarios import (
    BurstShape,
    ChaosSpec,
    ConstantShape,
    ControlSpec,
    LinkSpec,
    PoolSpec,
    RollingUpgradeShape,
    Scenario,
    ScenarioError,
    ScheduleSpec,
    SequentialShape,
    TenantSpec,
    TopologySpec,
    WorkloadSpec,
    compile_load,
    loads,
)
from repro.scenarios.__main__ import main


def minimal_yaml(**overrides):
    base = {
        "tenants": ("tenants:\n"
                    "  - name: acme\n"
                    "    workloads:\n"
                    "      - name: web\n"
                    "        shape: {type: constant, rate: 1.0, "
                    "duration: 5.0}\n"),
        "chaos": "",
    }
    base.update(overrides)
    return ("name: test\n"
            "seed: 1\n"
            "horizon: 20.0\n"
            "topology:\n"
            "  pools:\n"
            "    - {name: pool, nodes: 2}\n"
            + base["tenants"] + base["chaos"])


def build_scenario(**kwargs):
    defaults = dict(
        name="test", seed=1, horizon=20.0,
        topology=TopologySpec(pools=[PoolSpec("pool", nodes=2)]),
        tenants=[TenantSpec("acme", workloads=[
            WorkloadSpec("web", ConstantShape(rate=1.0, duration=5.0))])])
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestShapeValidation:
    def test_unknown_shape_type_lists_valid_ones(self):
        text = minimal_yaml(tenants=(
            "tenants:\n"
            "  - name: acme\n"
            "    workloads:\n"
            "      - name: web\n"
            "        shape: {type: sawtooth}\n"))
        with pytest.raises(ScenarioError) as excinfo:
            loads(text)
        message = str(excinfo.value)
        assert "tenants[0].workloads[0].shape" in message
        assert "'sawtooth'" in message
        assert "constant" in message and "diurnal" in message

    def test_unknown_shape_parameter_is_named(self):
        with pytest.raises(ScenarioError, match=r"rte.*valid.*rate"):
            loads(minimal_yaml(tenants=(
                "tenants:\n"
                "  - name: acme\n"
                "    workloads:\n"
                "      - name: web\n"
                "        shape: {type: constant, rte: 1.0, "
                "duration: 5.0}\n")))

    def test_missing_required_parameter(self):
        with pytest.raises(ScenarioError, match="missing a required"):
            loads(minimal_yaml(tenants=(
                "tenants:\n"
                "  - name: acme\n"
                "    workloads:\n"
                "      - name: web\n"
                "        shape: {type: constant, rate: 1.0}\n")))

    def test_negative_rate_message_is_actionable(self):
        with pytest.raises(ScenarioError) as excinfo:
            ConstantShape(rate=-2.0, duration=5.0).validate("here")
        assert "here" in str(excinfo.value)
        assert "-2.0" in str(excinfo.value)

    def test_flash_crowd_spike_must_fit_duration(self):
        with pytest.raises(ScenarioError, match="does not fit"):
            loads(minimal_yaml(tenants=(
                "tenants:\n"
                "  - name: acme\n"
                "    workloads:\n"
                "      - name: web\n"
                "        shape: {type: flash-crowd, base_rate: 1.0,\n"
                "                peak_rate: 5.0, at: 8.0, ramp: 2.0,\n"
                "                hold: 4.0, duration: 10.0}\n")))

    def test_rolling_upgrade_wave_before_fleet_deployed(self):
        with pytest.raises(ScenarioError, match="finishes deploying"):
            RollingUpgradeShape(count=10, startup_rate=1.0, batch=2,
                                interval=2.0, waves=3,
                                first_wave=5.0).validate("shape")


class TestStructuralValidation:
    def test_duplicate_tenant_name(self):
        with pytest.raises(ScenarioError) as excinfo:
            build_scenario(tenants=[
                TenantSpec("acme", workloads=[
                    WorkloadSpec("a", BurstShape(count=2))]),
                TenantSpec("acme", workloads=[
                    WorkloadSpec("b", BurstShape(count=2))]),
            ]).validate()
        message = str(excinfo.value)
        assert "tenants[1]" in message and "duplicate tenant" in message

    def test_duplicate_workload_name_within_tenant(self):
        with pytest.raises(ScenarioError, match="duplicate workload"):
            build_scenario(tenants=[TenantSpec("acme", workloads=[
                WorkloadSpec("web", BurstShape(count=2)),
                WorkloadSpec("web", BurstShape(count=2)),
            ])]).validate()

    def test_duplicate_pool_name(self):
        with pytest.raises(ScenarioError, match="duplicate pool"):
            build_scenario(topology=TopologySpec(pools=[
                PoolSpec("pool", nodes=1),
                PoolSpec("pool", nodes=2)])).validate()

    def test_workload_must_fit_horizon(self):
        with pytest.raises(ScenarioError, match="horizon"):
            build_scenario(horizon=4.0).validate()

    def test_empty_topology_rejected(self):
        with pytest.raises(ScenarioError, match="node pool"):
            build_scenario(topology=TopologySpec(pools=[])).validate()

    def test_link_loss_bounded(self):
        with pytest.raises(ScenarioError, match="loss"):
            build_scenario(topology=TopologySpec(pools=[
                PoolSpec("pool", nodes=2,
                         link=LinkSpec(loss=0.5))])).validate()

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            loads(minimal_yaml() + "surprise: true\n")


class TestChaosValidation:
    def test_unknown_fault_lists_catalog(self):
        with pytest.raises(ScenarioError) as excinfo:
            build_scenario(chaos=[ChaosSpec(
                "meteor-strike", "acme",
                ScheduleSpec("oneshot", at=1.0))]).validate()
        message = str(excinfo.value)
        assert "meteor-strike" in message
        assert "apiserver-crash" in message and "partition" in message

    def test_target_must_be_declared_tenant(self):
        with pytest.raises(ScenarioError, match="not a declared tenant"):
            build_scenario(chaos=[ChaosSpec(
                "partition", "ghost",
                ScheduleSpec("oneshot", at=1.0))]).validate()

    def test_fault_target_kind_enforced(self):
        # worker-crash only targets the syncer, never a tenant.
        with pytest.raises(ScenarioError, match="syncer"):
            build_scenario(chaos=[ChaosSpec(
                "worker-crash", "acme",
                ScheduleSpec("oneshot", at=1.0))]).validate()

    def test_unknown_fault_param_named(self):
        with pytest.raises(ScenarioError, match="blast_radius"):
            build_scenario(chaos=[ChaosSpec(
                "watch-drop", "acme", ScheduleSpec("oneshot", at=1.0),
                params={"blast_radius": 3})]).validate()

    def test_overlapping_oneshot_windows_same_fault_target(self):
        with pytest.raises(ScenarioError) as excinfo:
            build_scenario(chaos=[
                ChaosSpec("apiserver-crash", "acme",
                          ScheduleSpec("oneshot", at=5.0, duration=4.0)),
                ChaosSpec("apiserver-crash", "acme",
                          ScheduleSpec("oneshot", at=7.0, duration=4.0)),
            ]).validate()
        message = str(excinfo.value)
        assert "overlapping" in message
        assert "chaos[0]" in message and "chaos[1]" in message

    def test_oneshot_overlapping_periodic_window(self):
        # Periodic windows open at offset + k*period (+ accumulated
        # durations); one-shot at t=10 for 3s collides with the second
        # periodic window [10, 11).
        with pytest.raises(ScenarioError, match="overlapping"):
            build_scenario(chaos=[
                ChaosSpec("apiserver-crash", "acme",
                          ScheduleSpec("periodic", period=4.5,
                                       duration=1.0, count=2)),
                ChaosSpec("apiserver-crash", "acme",
                          ScheduleSpec("oneshot", at=9.5, duration=3.0)),
            ]).validate()

    def test_distinct_targets_may_overlap(self):
        build_scenario(
            tenants=[
                TenantSpec("acme", workloads=[
                    WorkloadSpec("a", BurstShape(count=2))]),
                TenantSpec("beta", workloads=[
                    WorkloadSpec("b", BurstShape(count=2))]),
            ],
            chaos=[
                ChaosSpec("apiserver-crash", "acme",
                          ScheduleSpec("oneshot", at=5.0, duration=4.0)),
                ChaosSpec("apiserver-crash", "beta",
                          ScheduleSpec("oneshot", at=6.0, duration=4.0)),
            ]).validate()

    def test_unbounded_periodic_rejected(self):
        with pytest.raises(ScenarioError, match="count"):
            ScheduleSpec("periodic", period=5.0).validate("chaos[0]")

    def test_random_schedule_skips_overlap_check(self):
        build_scenario(chaos=[
            ChaosSpec("apiserver-crash", "acme",
                      ScheduleSpec("random", mean_gap=5.0, count=2)),
            ChaosSpec("apiserver-crash", "acme",
                      ScheduleSpec("oneshot", at=5.0, duration=4.0)),
        ]).validate()


class TestChaosNeedsItsDeployment:
    """The storage/HA faults have nothing to fail over to on the
    default single-replica stack; that is an authoring error."""

    @pytest.mark.parametrize("fault,target,needs", [
        ("kill-leader", "syncer", "syncer_replicas >= 2"),
        ("kill-store", "super", "store_replicas >= 2"),
        ("replica-lag", "super", "store_replicas >= 2"),
        ("wal-corruption", "super", "store_wal"),
    ])
    def test_rejected_on_the_default_stack(self, fault, target, needs):
        with pytest.raises(ScenarioError) as excinfo:
            build_scenario(chaos=[ChaosSpec(
                fault, target, ScheduleSpec("oneshot", at=1.0))]).validate()
        message = str(excinfo.value)
        assert "chaos[0].fault" in message and needs in message

    def test_accepted_with_the_control_fields_set(self):
        build_scenario(
            control=ControlSpec(syncer_replicas=2, store_replicas=3),
            chaos=[
                ChaosSpec("kill-leader", "syncer",
                          ScheduleSpec("oneshot", at=1.0, duration=2.0)),
                ChaosSpec("kill-store", "super",
                          ScheduleSpec("oneshot", at=1.0, duration=2.0),
                          params={"mid_txn": True}),
                ChaosSpec("wal-corruption", "super",
                          ScheduleSpec("oneshot", at=5.0)),
                ChaosSpec("crash-control-plane", "acme",
                          ScheduleSpec("oneshot", at=6.0)),
                ChaosSpec("restore-snapshot", "acme",
                          ScheduleSpec("oneshot", at=8.0)),
            ]).validate()
        build_scenario(
            control=ControlSpec(store_wal=True),
            chaos=[ChaosSpec("wal-corruption", "super",
                             ScheduleSpec("oneshot", at=5.0))]).validate()

    def test_replica_counts_must_be_positive(self):
        with pytest.raises(ScenarioError, match="store_replicas"):
            loads(minimal_yaml() + "control: {store_replicas: 0}\n")


class TestMalformedInputIsRejectedNotCrashed:
    """Each of these used to raise a bare TypeError/ValueError (at load
    or, worse, mid-run) or be silently coerced."""

    CHAOS = ("chaos:\n"
             "  - fault: apiserver-crash\n"
             "    target: acme\n")

    def rejects(self, text, *needles):
        with pytest.raises(ScenarioError) as excinfo:
            loads(text)
        for needle in needles:
            assert needle in str(excinfo.value)
        return str(excinfo.value)

    @staticmethod
    def with_shape(shape):
        return minimal_yaml(tenants=(
            "tenants:\n"
            "  - name: acme\n"
            "    workloads:\n"
            "      - name: web\n"
            f"        shape: {shape}\n"))

    @pytest.mark.parametrize("shape,where", [
        # float("fast") used to escape as a bare ValueError.
        ("{type: constant, rate: fast, duration: 5.0}", "shape.rate"),
        # float(True) and int(2.7) used to coerce silently.
        ("{type: constant, rate: true, duration: 5.0}", "shape.rate"),
        ("{type: burst, count: 2.7}", "shape.count"),
        ("{type: constant, rate: .nan, duration: 5.0}", "shape.rate"),
        ("{type: diurnal, base_rate: 1, peak_rate: .inf, period: 5,"
         " duration: 5}", "shape.peak_rate"),
    ])
    def test_shape_parameters_are_typed(self, shape, where):
        self.rejects(self.with_shape(shape),
                     f"tenants[0].workloads[0].{where}")

    def test_wrong_typed_shape_parameter_is_not_called_missing(self):
        message = self.rejects(
            self.with_shape("{type: constant, rate: [1], duration: 5.0}"),
            "tenants[0].workloads[0].shape.rate", "[1]")
        assert "missing" not in message

    @pytest.mark.parametrize("old,new,where", [
        # NaN passes every < / > check: horizon .nan never finished.
        ("horizon: 20.0", "horizon: .nan", "horizon"),
        ("seed: 1", "seed: 1\ndescription: 5", "description"),
    ])
    def test_non_finite_and_wrong_typed_scalars(self, old, new, where):
        self.rejects(minimal_yaml().replace(old, new), where)

    TOPOLOGY = "topology:\n  pools:\n    - {name: pool, nodes: 2}\n"

    @pytest.mark.parametrize("text,needle", [
        # An absent or null key takes its default, and the default of
        # tenants/pools (an empty list) breaks its own row.
        ("name: x\n", "topology.pools"),
        (minimal_yaml(tenants=""), "at least one tenant"),
        (minimal_yaml(tenants="tenants:\n"), "at least one tenant"),
        (minimal_yaml().replace(TOPOLOGY, ""), "node pool"),
        (minimal_yaml().replace(TOPOLOGY, "topology: {}\n"), "node pool"),
        (minimal_yaml().replace(TOPOLOGY, "topology:\n  pools:\n"),
         "node pool"),
    ], ids=["name-only", "tenants-absent", "tenants-null", "topology-absent",
            "topology-empty", "pools-null"])
    def test_defaults_are_held_to_their_rows(self, text, needle):
        self.rejects(text, needle)

    def test_fault_choice_parameter_checked_at_load(self):
        # A typo here used to raise ValueError mid-run, from
        # SyncerHA.kill_leader.
        self.rejects(minimal_yaml() + (
            "control: {syncer_replicas: 2}\n"
            "chaos:\n"
            "  - fault: kill-leader\n"
            "    target: syncer\n"
            "    schedule: {type: oneshot, at: 1.0}\n"
            "    params: {mode: crsh}\n"),
            "chaos[0].params.mode", "'crsh'", "crash, partition")

    def test_fractional_schedule_count(self):
        self.rejects(minimal_yaml(chaos=self.CHAOS + (
            "    schedule: {type: periodic, period: 2.0, count: 2.5}\n")),
            "chaos[0].schedule.count", "2.5")

    @pytest.mark.parametrize("bad", ['"ab"', "[3]", "[3, 1]", "[-1, 2]",
                                     "[1, x]", "7"])
    def test_duration_range_must_be_two_ordered_numbers(self, bad):
        self.rejects(minimal_yaml(chaos=self.CHAOS + (
            "    schedule: {type: random, mean_gap: 2.0, count: 2,\n"
            f"               duration_range: {bad}}}\n")),
            "chaos[0].schedule.duration_range")

    def test_params_must_be_a_mapping(self):
        self.rejects(minimal_yaml(chaos=self.CHAOS + (
            "    schedule: {type: oneshot, at: 1.0}\n"
            "    params: [1]\n")), "chaos[0].params", "[1]")

    def test_fractional_node_count_not_truncated(self):
        self.rejects(minimal_yaml().replace("nodes: 2", "nodes: 2.7"),
                     "topology.pools[0].nodes", "2.7")

    @pytest.mark.parametrize("extra,where", [
        ("control: {dws_workers: 3.5}\n", "control.dws_workers"),
        ("expect: {min_pods_created: 4.5}\n", "expect.min_pods_created"),
        ("control: {syncer_replicas: 2.5}\n", "control.syncer_replicas"),
    ])
    def test_fractional_integers_elsewhere(self, extra, where):
        self.rejects(minimal_yaml() + extra, where)

    def test_fractional_weight_and_seed(self):
        self.rejects(minimal_yaml().replace(
            "  - name: acme\n", "  - name: acme\n    weight: 1.5\n"),
            "tenants[0].weight")
        self.rejects(minimal_yaml().replace("seed: 1", "seed: 1.5"),
                     "seed", "1.5")

    @pytest.mark.parametrize("extra,where", [
        ('tier1: "no"\n', "tier1"),
        ("race_check: 1\n", "race_check"),
        ('control: {apf: "false"}\n', "control.apf"),
        ('control: {store_wal: "yes"}\n', "control.store_wal"),
        ("expect: {converged: 0}\n", "expect.converged"),
        # bool("no") is True: the kill used to fire mid-transaction.
        ("control: {store_replicas: 2}\n"
         "chaos:\n"
         "  - fault: kill-store\n"
         "    target: super\n"
         "    schedule: {type: oneshot, at: 1.0}\n"
         "    params: {mid_txn: \"no\"}\n", "chaos[0].params.mid_txn"),
    ])
    def test_booleans_must_be_booleans(self, extra, where):
        self.rejects(minimal_yaml() + extra, where, "true or false")


class TestCompilation:
    def test_sequential_maps_to_closed_loop_pattern(self):
        scenario = build_scenario(tenants=[TenantSpec("acme", workloads=[
            WorkloadSpec("ops", SequentialShape(count=4, think=0.5),
                         start=2.0)])]).validate()
        (job,) = compile_load(scenario)
        assert job.actions is None
        assert job.plan.mode == "sequential"
        assert job.plan.count == 4
        assert job.start == 2.0

    def test_start_offset_folded_into_timed_actions(self):
        scenario = build_scenario(tenants=[TenantSpec("acme", workloads=[
            WorkloadSpec("spike", BurstShape(count=3, at=1.0),
                         start=4.0)])]).validate()
        (job,) = compile_load(scenario)
        assert job.start == 0.0
        assert [when for when, _op, _i in job.actions] == [5.0, 5.0, 5.0]
        assert job.plan.concurrent is True

    def test_rolling_upgrade_actions_interleave_creates_and_replaces(self):
        shape = RollingUpgradeShape(count=4, startup_rate=2.0, batch=2,
                                    interval=3.0, waves=2, first_wave=3.0)
        actions, concurrent = shape.compile(None)
        assert concurrent is False
        ops = [op for _w, op, _i in actions]
        assert ops.count("create") == 4
        assert ops.count("replace") == 4
        # Waves walk the fleet round-robin.
        replace_indices = [i for _w, op, i in actions if op == "replace"]
        assert replace_indices == [0, 1, 2, 3]

    def test_jitter_draws_differ_across_workloads_but_not_runs(self):
        scenario = build_scenario(tenants=[TenantSpec("acme", workloads=[
            WorkloadSpec("a", ConstantShape(rate=2.0, duration=5.0),
                         jitter=0.1),
            WorkloadSpec("b", ConstantShape(rate=2.0, duration=5.0),
                         jitter=0.1)])]).validate()
        first, second = compile_load(scenario), compile_load(scenario)
        assert first[0].actions == second[0].actions
        assert first[1].actions == second[1].actions
        # Same shape, same jitter — but workload-derived seeds differ.
        assert first[0].actions != first[1].actions


class TestCliReportsUnloadableFiles:
    """A file that does not load is one ``path: message`` line and exit
    status 2, not a traceback; ``verify`` marks it FAIL and goes on."""

    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(minimal_yaml().replace("horizon: 20.0",
                                               "horizon: .nan"))
        return path

    @pytest.mark.parametrize("command", ["list", "run", "record"])
    def test_one_line_on_stderr_and_exit_2(self, command, bad, capsys):
        target = bad.parent if command == "list" else bad
        assert main([command, str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"{bad}: horizon: expected a finite number, got nan\n"

    def test_scenario_without_tenants_stops_at_load(self, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text(minimal_yaml(tenants=""))
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"{path}: tenants: must be >= 1, got 0 ")
        assert err.count("\n") == 1

    def test_verify_reports_fail_and_continues(self, bad, capsys):
        (bad.parent / "worse.yaml").write_text("name: [1]\n")
        assert main(["verify", str(bad.parent)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"{bad}: FAIL — horizon: expected a finite number, got nan",
            f"{bad.parent / 'worse.yaml'}: FAIL — name: expected a valid "
            f"name (lowercase alphanumerics and '-', starting and ending "
            f"alphanumeric), got [1]"]
