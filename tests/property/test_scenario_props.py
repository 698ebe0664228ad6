"""Property-based tests for the scenario DSL (DESIGN.md §14).

Three invariants the golden corpus rests on:

1. **Round-trip**: ``loads(dumps(s)) == s`` for any valid scenario —
   the YAML layer adds or loses nothing, so a file pins exactly one
   model.
2. **Seed determinism**: compiling the same scenario twice yields
   byte-identical action plans (the pure half of the runner; without
   it, golden digests could never match).
3. **Integral accuracy**: for the continuous shapes, the number of
   compiled arrivals matches the integral of the declared rate curve to
   within one Pod (the documented quantization bound of the midpoint
   integrator) — declared rates are honest, not approximate.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FAULTS
from repro.scenarios import (
    BurstShape,
    ChaosSpec,
    ConstantShape,
    ControlSpec,
    DiurnalShape,
    FlashCrowdShape,
    RollingUpgradeShape,
    Scenario,
    ScheduleSpec,
    SequentialShape,
    TenantSpec,
    TopologySpec,
    PoolSpec,
    WorkloadSpec,
    compile_load,
    dumps,
    loads,
)
from repro.scenarios.shapes import INTEGRATION_STEP

rate_st = st.floats(min_value=0.1, max_value=8.0, allow_nan=False,
                    allow_infinity=False)
duration_st = st.floats(min_value=1.0, max_value=20.0, allow_nan=False,
                        allow_infinity=False)

constant_st = st.builds(ConstantShape, rate=rate_st, duration=duration_st)

diurnal_st = st.builds(
    lambda base, extra, period, duration: DiurnalShape(
        base_rate=base, peak_rate=base + extra, period=period,
        duration=duration),
    base=rate_st, extra=st.floats(min_value=0.0, max_value=6.0),
    period=st.floats(min_value=2.0, max_value=30.0),
    duration=duration_st)

flash_st = st.builds(
    lambda base, extra, at, ramp, hold: FlashCrowdShape(
        base_rate=base, peak_rate=base + extra, at=at, ramp=ramp,
        hold=hold, duration=at + 2 * ramp + hold + 1.0),
    base=rate_st, extra=st.floats(min_value=0.0, max_value=8.0),
    at=st.floats(min_value=0.0, max_value=6.0),
    ramp=st.floats(min_value=0.1, max_value=3.0),
    hold=st.floats(min_value=0.0, max_value=4.0))

burst_st = st.builds(BurstShape, count=st.integers(1, 50),
                     at=st.floats(min_value=0.0, max_value=5.0))

sequential_st = st.builds(SequentialShape, count=st.integers(1, 20),
                          think=st.floats(min_value=0.0, max_value=1.0))

rolling_st = st.builds(
    lambda count, rate, batch, interval, waves: RollingUpgradeShape(
        count=count, startup_rate=rate, batch=min(batch, count),
        interval=interval, waves=waves,
        first_wave=count / rate + 1.0),
    count=st.integers(2, 20),
    rate=st.floats(min_value=0.5, max_value=8.0),
    batch=st.integers(1, 6),
    interval=st.floats(min_value=0.5, max_value=5.0),
    waves=st.integers(0, 5))

any_shape_st = st.one_of(constant_st, diurnal_st, flash_st, burst_st,
                         sequential_st, rolling_st)
continuous_shape_st = st.one_of(constant_st, diurnal_st, flash_st)

name_st = st.from_regex(r"[a-z][a-z0-9-]{0,6}[a-z0-9]", fullmatch=True)


control_st = st.builds(
    ControlSpec, syncer_replicas=st.integers(1, 3),
    store_replicas=st.integers(1, 3), store_wal=st.booleans())

#: The HA/storage faults and one drawable value per parameter.
HA_STORAGE_PARAMS = {
    "kill-leader": {"mode": st.sampled_from(["crash", "partition"]),
                    "notice_delay": st.floats(0.0, 4.0)},
    "crash-control-plane": {},
    "restore-snapshot": {},
    "kill-store": {"mid_txn": st.booleans(), "max_ops": st.integers(1, 8)},
    "replica-lag": {"extra_lag": st.floats(0.0, 1.0)},
    "wal-corruption": {},
}


@st.composite
def chaos_st(draw, control, tenant_names):
    """Chaos entries over the HA/storage faults the drawn ``control``
    can host, on staggered windows so same-fault entries never overlap."""
    legal = sorted(
        name for name in HA_STORAGE_PARAMS
        if FAULTS[name].requires is None
        or FAULTS[name].requires[1](control))
    entries = []
    for index, fault in enumerate(draw(st.lists(
            st.sampled_from(legal), max_size=4))):
        kind = FAULTS[fault]
        target = (draw(st.sampled_from(tenant_names))
                  if "tenant" in kind.targets else kind.targets[0])
        params = {name: draw(value)
                  for name, value in HA_STORAGE_PARAMS[fault].items()
                  if draw(st.booleans())}
        entries.append(ChaosSpec(
            fault, target,
            ScheduleSpec("oneshot", at=1.0 + 5.0 * index,
                         duration=draw(st.floats(0.0, 4.0))),
            params=params))
    return entries


@st.composite
def scenario_st(draw):
    tenant_names = draw(st.lists(name_st, min_size=1, max_size=3,
                                 unique=True))
    tenants = []
    for tenant_name in tenant_names:
        workload_names = draw(st.lists(name_st, min_size=1, max_size=2,
                                       unique=True))
        workloads = [
            WorkloadSpec(
                workload_name, draw(any_shape_st),
                start=draw(st.floats(min_value=0.0, max_value=3.0)),
                jitter=draw(st.floats(min_value=0.0, max_value=0.2)))
            for workload_name in workload_names
        ]
        tenants.append(TenantSpec(
            tenant_name, weight=draw(st.integers(1, 8)),
            workloads=workloads))
    control = draw(control_st)
    scenario = Scenario(
        name=draw(name_st), seed=draw(st.integers(0, 2**31)),
        horizon=500.0,  # generous: every generated window fits
        control=control,
        topology=TopologySpec(pools=[
            PoolSpec("pool", nodes=draw(st.integers(1, 8)))]),
        tenants=tenants,
        chaos=draw(chaos_st(control, tenant_names)))
    return scenario.validate()


class TestRoundTrip:
    def test_strategy_draws_every_parameter_the_table_declares(self):
        for fault, params in HA_STORAGE_PARAMS.items():
            assert set(params) == set(FAULTS[fault].params), fault

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenario_st())
    def test_yaml_round_trip_is_identity(self, scenario):
        assert loads(dumps(scenario)) == scenario

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenario_st())
    def test_dump_is_stable(self, scenario):
        text = dumps(scenario)
        assert dumps(loads(text)) == text


class TestSeedDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(scenario=scenario_st())
    def test_compile_twice_identical(self, scenario):
        first = compile_load(scenario)
        second = compile_load(scenario)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert (a.tenant, a.workload, a.start) == \
                (b.tenant, b.workload, b.start)
            assert a.actions == b.actions

    @settings(max_examples=20, deadline=None)
    @given(scenario=scenario_st(), other_seed=st.integers(0, 2**31))
    def test_round_tripped_scenario_compiles_identically(self, scenario,
                                                         other_seed):
        clone = loads(dumps(scenario))
        for a, b in zip(compile_load(scenario), compile_load(clone)):
            assert a.actions == b.actions


class TestIntegralAccuracy:
    @settings(max_examples=80, deadline=None)
    @given(shape=continuous_shape_st, seed=st.integers(0, 2**31))
    def test_arrival_count_matches_rate_integral(self, shape, seed):
        import random

        shape.validate("shape")
        actions, concurrent = shape.compile(random.Random(seed))
        assert not concurrent
        # Reference integral of the declared curve on a finer grid than
        # the compiler's, so quantization error stays on its side.
        step = INTEGRATION_STEP / 4.0
        steps = int(math.ceil(shape.duration / step))
        integral = 0.0
        for i in range(steps):
            t0 = i * step
            width = min(step, shape.duration - t0)
            integral += shape.rate_at(t0 + width / 2.0) * width
        # One whole Pod of quantization plus the fine-grid residue.
        assert abs(len(actions) - integral) <= 1.0 + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(shape=continuous_shape_st, seed=st.integers(0, 2**31))
    def test_arrivals_sorted_and_in_window(self, shape, seed):
        import random

        actions, _concurrent = shape.compile(random.Random(seed))
        times = [when for when, _op, _index in actions]
        assert times == sorted(times)
        assert all(0.0 <= t <= shape.duration for t in times)
        assert [op for _w, op, _i in actions] == ["create"] * len(actions)
