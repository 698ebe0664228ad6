"""Property-based tests for the kernel's schedule seed.

``Simulation(schedule=S)`` may only reorder items that share a
timestamp.  Hypothesis draws random processes — chains of wake-ups
over a small set of delays, so many land on one timestamp and some go
through the timer wheel — and a schedule seed.  Under every seed:

- dispatch times never decrease (nothing runs before its time);
- the items dispatched at each timestamp are a permutation of the FIFO
  run's items at that timestamp (nothing is lost, added or moved across
  a timestamp).

``schedule=None`` is the FIFO tie-break ``test_no_perturb_is_fifo``
pins: first wake-ups that share a timestamp run in process creation
order.
"""

from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Simulation

# 0.25 s and up is staged in the timer wheel; the rest goes to the heap.
DELAYS = (0.0, 0.1, 0.25, 0.5, 1.0, 40.0)

plan_st = st.lists(st.lists(st.sampled_from(DELAYS), min_size=1,
                            max_size=3),
                   min_size=1, max_size=16)
schedule_st = st.integers(min_value=0, max_value=2**32 - 1)


def dispatch_log(plan, schedule):
    """``(time, process, step)`` per wake-up, in dispatch order."""
    sim = Simulation(seed=0, schedule=schedule)
    log = []

    def proc(index, delays):
        for step, delay in enumerate(delays):
            yield sim.timeout(delay)
            log.append((sim.now, index, step))

    for index, delays in enumerate(plan):
        sim.process(proc(index, delays), name=f"p{index}")
    sim.run()
    return log


def by_time(log):
    items = defaultdict(Counter)
    for now, index, step in log:
        items[now][(index, step)] += 1
    return items


@settings(max_examples=60, deadline=None)
@given(plan=plan_st, schedule=schedule_st)
def test_schedule_permutes_only_within_a_timestamp(plan, schedule):
    fifo = dispatch_log(plan, None)
    shuffled = dispatch_log(plan, schedule)
    times = [now for now, _index, _step in shuffled]
    assert times == sorted(times)
    assert by_time(shuffled) == by_time(fifo)
    assert len(shuffled) == sum(len(delays) for delays in plan)


@settings(max_examples=60, deadline=None)
@given(plan=plan_st)
def test_no_schedule_is_fifo(plan):
    first_wakeups = defaultdict(list)
    for now, index, step in dispatch_log(plan, None):
        if step == 0:
            first_wakeups[now].append(index)
    for indices in first_wakeups.values():
        assert indices == sorted(indices)
