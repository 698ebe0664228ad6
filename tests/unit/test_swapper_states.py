"""Swap state machine edge cases (DESIGN.md §15).

The scale-to-zero lifecycle has three races the benchmark's flash crowd
will hit constantly; each gets a focused test here:

- a tenant request arriving *mid-page-out* must abort the swap for free
  (the memory never left);
- two requests waking the same plane must coalesce onto one page-in
  (double wake pays the latency once);
- a waker killed mid-page-in (leader failover tears down its process)
  must roll the state back so a joined waiter restarts the wake.

Plus the warm-pool retention policy and the WakeGate's tier priority.
"""

from dataclasses import replace

import pytest

from repro.config import SwapperConfig
from repro.core.swapper import (
    RESIDENT,
    SWAPPED,
    SWAPPING_OUT,
    WAKING,
    IdleSwapper,
    SwapState,
    WakeGate,
)
from repro.simkernel import Simulation
from repro.simkernel.errors import Interrupt

pytestmark = pytest.mark.apf

# The original ablation's settings (immediate page-out, no warm pool,
# unbounded page-in concurrency); each test overrides what it exercises.
ABLATION = SwapperConfig(swapout_latency=0.0, warm_pool=0,
                         wake_concurrency=0)


def run_awake(sim, state, box=None, name="requester"):
    def proc():
        started = sim.now
        yield from state.ensure_awake()
        if box is not None:
            box.append(sim.now - started)

    return sim.spawn(proc(), name=name)


class TestSwapStateMachine:
    def test_request_mid_swapout_aborts_for_free(self):
        sim = Simulation(seed=1)
        swapper = IdleSwapper(sim, replace(ABLATION, swapout_latency=0.5))
        state = SwapState(sim, swapper=swapper, name="cp")
        entry = {"control_plane": None, "tier": "standard"}
        # Drive the page-out window by hand (no control plane needed).
        state._swap_epoch += 1
        state.state = SWAPPING_OUT
        sim.spawn(swapper._swapout_window(entry, state, state._swap_epoch),
                  name="swapout")
        sim.run(until=sim.now + 0.2)      # mid-window
        elapsed = []
        run_awake(sim, state, elapsed)
        sim.run(until=sim.now + 1.0)
        assert elapsed == [0.0]           # aborted, no wake latency paid
        assert state.state == RESIDENT
        assert state.swapout_aborts == 1
        assert state.swap_outs == 0       # the stale window finisher lost

    def test_double_wake_pays_latency_once(self):
        sim = Simulation(seed=1)
        state = SwapState(sim, wake_latency=1.0)
        state.swapped = True
        elapsed = []
        run_awake(sim, state, elapsed, name="first")
        sim.run(until=sim.now + 0.3)
        assert state.state == WAKING
        run_awake(sim, state, elapsed, name="second")
        sim.run(until=sim.now + 2.0)
        assert state.swap_ins == 1
        assert elapsed[0] == pytest.approx(1.0)
        # The joiner waited only the remaining 0.7s of the same page-in.
        assert elapsed[1] == pytest.approx(0.7)
        assert state.state == RESIDENT

    def test_waker_death_rolls_back_and_waiter_restarts(self):
        sim = Simulation(seed=1)
        state = SwapState(sim, wake_latency=1.0)
        state.swapped = True

        def doomed():
            try:
                yield from state.ensure_awake()
            except Interrupt:
                pass

        waker = sim.spawn(doomed(), name="doomed-waker")
        sim.run(until=sim.now + 0.4)
        assert state.state == WAKING
        elapsed = []
        run_awake(sim, state, elapsed, name="survivor")
        sim.run(until=sim.now + 0.1)
        waker.interrupt("leader failover")
        sim.run(until=sim.now + 3.0)
        # Rollback happened, then the survivor restarted the page-in.
        assert state.swap_ins == 1
        assert state.state == RESIDENT
        # The survivor joined at 0.4, saw the rollback at 0.5, then paid
        # a full 1.0s wake of its own.
        assert elapsed[0] == pytest.approx(1.1)

    def test_wake_during_failover_without_swapper_is_cold(self):
        sim = Simulation(seed=1)
        state = SwapState(sim, wake_latency=0.8)
        state.swapped = True
        elapsed = []
        run_awake(sim, state, elapsed)
        sim.run(until=sim.now + 2.0)
        assert elapsed == [pytest.approx(0.8)]
        assert state.swap_ins == 1


class TestWakeGate:
    def test_platinum_jumps_the_wake_queue(self):
        sim = Simulation(seed=1)
        gate = WakeGate(sim, capacity=1)
        order = []

        def holder():
            yield gate.acquire(0)
            yield sim.timeout(1.0)
            gate.release()

        def waiter(rank, label):
            yield gate.acquire(rank)
            order.append(label)
            yield sim.timeout(0.1)
            gate.release()

        sim.spawn(holder(), name="holder")
        sim.run(until=sim.now + 0.1)
        sim.spawn(waiter(3, "free"), name="free")
        sim.run(until=sim.now + 0.1)
        sim.spawn(waiter(2, "standard"), name="standard")
        sim.run(until=sim.now + 0.1)
        sim.spawn(waiter(1, "platinum"), name="platinum")
        sim.run(until=sim.now + 5.0)
        assert order == ["platinum", "standard", "free"]

    def test_dead_waiter_skipped_on_release(self):
        sim = Simulation(seed=1)
        gate = WakeGate(sim, capacity=1)
        taken = []

        def holder():
            yield gate.acquire(0)
            yield sim.timeout(1.0)
            gate.release()

        def doomed():
            try:
                yield gate.acquire(1)
                taken.append("doomed")
            except Interrupt:
                pass

        def live():
            yield gate.acquire(2)
            taken.append("live")
            gate.release()

        sim.spawn(holder(), name="holder")
        sim.run(until=sim.now + 0.1)
        dead = sim.spawn(doomed(), name="doomed")
        sim.run(until=sim.now + 0.1)
        sim.spawn(live(), name="live")
        sim.run(until=sim.now + 0.1)
        dead.interrupt("gone")
        sim.run(until=sim.now + 5.0)
        assert taken == ["live"]


class TestWarmPool:
    def test_warm_hit_then_cold(self):
        sim = Simulation(seed=1)
        swapper = IdleSwapper(sim, replace(
            ABLATION, cold_wake_latency=0.8, warm_pool=2,
            warm_wake_latency=0.15))
        swapper._warm_admit("cp-a", "standard")
        latency, kind = swapper.wake_latency_for("cp-a")
        assert (latency, kind) == (0.15, "warm")
        # The slot was consumed: the next wake of the same plane is cold.
        latency, kind = swapper.wake_latency_for("cp-a")
        assert (latency, kind) == (0.8, "cold")

    def test_eviction_prefers_dropping_low_tiers(self):
        sim = Simulation(seed=1)
        swapper = IdleSwapper(sim, replace(ABLATION, warm_pool=2))
        swapper._warm_admit("cp-free", "free")
        swapper._warm_admit("cp-plat", "platinum")
        swapper._warm_admit("cp-std", "standard")
        # Pool of 2: the free-tier plane was evicted first.
        assert set(swapper._warm) == {"cp-plat", "cp-std"}

    def test_eviction_drops_oldest_within_a_tier(self):
        sim = Simulation(seed=1)
        swapper = IdleSwapper(sim, replace(ABLATION, warm_pool=2))
        swapper._warm_admit("cp-1", "standard")
        swapper._warm_admit("cp-2", "standard")
        swapper._warm_admit("cp-3", "standard")
        assert set(swapper._warm) == {"cp-2", "cp-3"}
