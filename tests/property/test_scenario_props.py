"""Property-based tests for the scenario DSL (DESIGN.md §14).

Four invariants the golden corpus rests on:

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
4. **Hostile input is refused, not crashed on**: any one field of a
   valid scenario, set to a value of the wrong type, out of range or
   NaN, either still loads or raises ``ScenarioError`` — never another
   exception, and NaN never loads.

The control block and every fault's parameters are drawn from the
same field tables the loader checks against (``repro.chaos.spec``), so a row
added to a table is drawn without touching this file.
"""

import copy
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FAULTS
from repro.scenarios import (
    SHAPES,
    BurstShape,
    ChaosSpec,
    ConstantShape,
    ControlSpec,
    DiurnalShape,
    ExpectSpec,
    FlashCrowdShape,
    GoldenSpec,
    RollingUpgradeShape,
    Scenario,
    ScenarioError,
    ScheduleSpec,
    SequentialShape,
    Shape,
    TelemetryExpect,
    TenantSpec,
    TopologySpec,
    PoolSpec,
    WorkloadSpec,
    compile_load,
    dumps,
    loads,
)
from repro.scenarios.shapes import INTEGRATION_STEP
from repro.chaos.spec import BOOL, CHOICE, INT, NUMBER, SPEC, SPECS, STRS

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


def field_st(row):
    """Values a scalar, choice or list-of-str table row accepts."""
    if row.kind == BOOL:
        values = st.booleans()
    elif row.kind == CHOICE:
        values = st.sampled_from(row.choices)
    elif row.kind == STRS:
        values = st.lists(st.sampled_from(("get", "list", "create",
                                           "update", "delete")),
                          max_size=3)
    elif row.kind == INT:
        low = row.ge if row.ge is not None else 0
        values = st.integers(low, low + 7)
    else:
        assert row.kind == NUMBER, row.kind
        low = row.gt if row.gt is not None else (row.ge or 0.0)
        high = row.le if row.le is not None else (
            row.lt if row.lt is not None else low + 60.0)
        values = st.floats(low, high, exclude_min=row.gt is not None,
                           exclude_max=row.lt is not None)
    return st.none() | values if row.default is None else values


@st.composite
def control_st(draw):
    values = {row.name: draw(field_st(row)) for row in ControlSpec.fields}
    if values["idle_threshold"] is not None:
        values["scale_to_zero"] = True
    if values["direct"]:
        # A direct run has no tenant control plane to replicate or swap.
        values.update(syncer_replicas=1, store_replicas=1,
                      scale_to_zero=False, idle_threshold=None)
    return ControlSpec(**values)


@st.composite
def chaos_st(draw, control, tenant_names):
    """Chaos entries over every fault the drawn ``control`` can host,
    with table-drawn parameters, on staggered windows so same-fault
    entries never overlap.  A direct run hosts none."""
    if control.direct:
        return []
    legal = sorted(
        name for name, kind in FAULTS.items()
        if kind.requires is None or kind.requires[1](control))
    entries = []
    for index, fault in enumerate(draw(st.lists(
            st.sampled_from(legal), max_size=4))):
        kind = FAULTS[fault]
        target = draw(st.sampled_from(
            (tenant_names if "tenant" in kind.targets else [])
            + [t for t in kind.targets if t != "tenant"]))
        params = {name: draw(field_st(row))
                  for name, row in kind.params.items()
                  if draw(st.booleans())}
        entries.append(ChaosSpec(
            fault, target,
            ScheduleSpec("oneshot", at=1.0 + 5.0 * index,
                         duration=draw(st.floats(0.0, 4.0))),
            params=params))
    return entries


expect_st = st.builds(
    ExpectSpec, converged=st.booleans(),
    min_pods_created=st.integers(0, 50),
    telemetry=st.lists(st.builds(
        TelemetryExpect,
        metric=st.sampled_from(["scheduler_binds_total",
                                "syncer_items_total"]),
        min=st.integers(0, 100), max=st.none() | st.floats(100.0, 1e6)),
        max_size=2))

golden_st = st.builds(
    GoldenSpec, digest=st.text("0123456789abcdef", min_size=64,
                               max_size=64),
    store_events=st.integers(1, 10_000), sim_time=st.floats(0.0, 1e4))


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
    control = draw(control_st())
    scenario = Scenario(
        name=draw(name_st), seed=draw(st.integers(0, 2**31)),
        horizon=500.0,  # generous: every generated window fits
        control=control,
        topology=TopologySpec(pools=[
            PoolSpec("pool", nodes=draw(st.integers(1, 8)))]),
        tenants=tenants,
        chaos=draw(chaos_st(control, tenant_names)),
        expect=draw(expect_st), golden=draw(st.none() | golden_st))
    return scenario.validate()


def _table_slots(cls, data):
    """``(mapping, key)`` for every row of ``cls``'s table in ``data``,
    and of the nested tables it holds: shapes by type, fault
    parameters by fault."""
    slots = []
    for row in cls.fields:
        slots.append((data, row.name))
        value = data.get(row.name)
        if row.kind == SPEC and isinstance(value, dict):
            nested = SHAPES[value["type"]] if row.spec is Shape else row.spec
            slots += _table_slots(nested, value)
        elif row.kind == SPECS:
            for item in value or ():
                slots += _table_slots(row.spec, item)
    if cls is ChaosSpec:
        params = data.setdefault("params", {})
        slots += [(params, name) for name in FAULTS[data["fault"]].params]
    return slots


hostile_st = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(),
    st.floats(0.1, 9.9).filter(lambda v: v != int(v)),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(max_value=-1), st.floats(-9.9, -0.1))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_strategy_draws_every_parameter_the_table_declares(self, data):
        """Every fault parameter and control field is drawable, and
        each draw is a value its row accepts."""
        rows = [row for kind in FAULTS.values()
                for row in kind.params.values()] + list(ControlSpec.fields)
        row = data.draw(st.sampled_from(rows))
        row.check(data.draw(field_st(row)), row.name)

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenario_st())
    def test_yaml_round_trip_is_identity(self, scenario):
        assert loads(dumps(scenario)) == scenario

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenario_st())
    def test_dump_is_stable(self, scenario):
        text = dumps(scenario)
        assert dumps(loads(text)) == text


class TestHostileInput:
    @settings(max_examples=40, deadline=None)
    @given(scenario=scenario_st(), data=st.data())
    def test_one_hostile_leaf_loads_or_raises_scenario_error(self, scenario,
                                                             data):
        """Each table slot in turn gets one drawn hostile value and then
        NaN; every load either succeeds, with a scenario that validates,
        or raises ScenarioError."""
        document = copy.deepcopy(scenario.to_dict())
        for mapping, key in _table_slots(Scenario, document):
            original = mapping.get(key)
            for value in (data.draw(hostile_st), math.nan):
                mapping[key] = value
                try:
                    loaded = Scenario.from_dict(document)
                except ScenarioError:
                    continue
                assert not (isinstance(value, float)
                            and math.isnan(value)), f"NaN loaded at {key!r}"
                loaded.validate()
                assert Scenario.from_dict(loaded.to_dict()) == loaded
            mapping[key] = original


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
