"""Unit tests for the replay-divergence bisector.

The e2e localization test reorders a same-timestamp tie with a schedule
seed (``Simulation(schedule=S)``): the bisector must localize the
divergence to the exact first store event that moved and attribute it
to the component (sim process) that emitted it.
"""

import functools

from repro.analysis import Divergence, ReplayRecorder, first_divergence
from repro.simkernel import Simulation
from repro.storage import EtcdStore


def _recorded_run(seed, schedule=None):
    """Two writers racing to create keys at the same timestamp.

    Under :func:`_flipping_schedule` the dispatch order of their wakeups
    flips, so the store-event stream diverges at index 0.
    """
    sim = Simulation(seed=seed, schedule=schedule)
    recorder = ReplayRecorder(sim)
    store = EtcdStore(sim, name="etcd")

    def writer(name):
        yield sim.timeout(1.0)
        store.create(f"/registry/x/{name}/a", {"writer": name})

    sim.process(writer("p1"), name="writer-p1")
    sim.process(writer("p2"), name="writer-p2")
    sim.run(until=5.0)
    return recorder


@functools.cache
def _flipping_schedule():
    """The first schedule seed under which writer-p2 writes first."""
    return next(schedule for schedule in range(64)
                if _recorded_run(1, schedule).entries[0].component
                == "writer-p2")


class TestRecorder:
    def test_records_every_store_emission(self):
        run = _recorded_run(seed=1)
        assert len(run.entries) == 2
        assert len(run.digests) == 2
        assert run.final_digest == run.digests[-1]

    def test_digests_are_cumulative(self):
        """Same event after different prefixes hashes differently."""
        run = _recorded_run(seed=1)
        assert run.digests[0] != run.digests[1]

    def test_component_attribution(self):
        run = _recorded_run(seed=1)
        assert {entry.component for entry in run.entries} == {
            "writer-p1", "writer-p2"}


class TestFirstDivergence:
    def test_identical_runs_return_none(self):
        run_a = _recorded_run(seed=1)
        run_b = _recorded_run(seed=1)
        assert run_a.final_digest == run_b.final_digest
        assert first_divergence(run_a, run_b) is None

    def test_perturbed_run_localized_to_first_event(self):
        """E2e: a flipped event order is bisected to its exact index."""
        run_a = _recorded_run(seed=1)
        run_b = _recorded_run(seed=1, schedule=_flipping_schedule())
        assert run_a.final_digest != run_b.final_digest

        divergence = first_divergence(run_a, run_b)
        assert divergence is not None
        assert divergence.index == 0
        # The schedule swapped the two writers' wakeups, so the
        # first store event belongs to a different component per run.
        assert {divergence.a.component, divergence.b.component} == {
            "writer-p1", "writer-p2"}
        assert divergence.a.key != divergence.b.key

    def test_divergence_format_names_component(self):
        run_a = _recorded_run(seed=1)
        run_b = _recorded_run(seed=1, schedule=_flipping_schedule())
        divergence = first_divergence(run_a, run_b)
        text = divergence.format()
        assert "event 0" in text or "index 0" in text or "#0" in text
        assert "writer-p1" in text or "writer-p2" in text

    def test_length_mismatch_with_identical_prefix(self):
        """A truncated run diverges at the first missing index."""
        run_a = _recorded_run(seed=1)
        run_b = _recorded_run(seed=1)
        run_b.entries.pop()
        run_b.digests.pop()
        divergence = first_divergence(run_a, run_b)
        assert divergence is not None
        assert divergence.index == 1
        assert (divergence.a is None) != (divergence.b is None)

    def test_binary_search_on_long_streams(self):
        """Divergence deep in a long stream lands on the exact index."""
        digests_a = ["same"] * 40 + [f"a{i}" for i in range(24)]
        digests_b = ["same"] * 40 + [f"b{i}" for i in range(24)]

        class Run:
            def __init__(self, digests):
                self.digests = digests
                self.entries = [None] * len(digests)

        divergence = first_divergence(Run(digests_a), Run(digests_b))
        assert divergence.index == 40


class TestPerturbationHook:
    def test_schedule_never_dispatches_early(self):
        """Under every schedule seed each process wakes exactly at its
        own timestamp: a schedule reorders ties, it never pulls a later
        item forward.  A one-shot swap of the next two heap entries did,
        whatever their times: the 0.2 s wake-up ran at 0.1 s."""
        delays = (1.0, 1.0, 1.5, 2.0, 2.0, 0.3, 0.1, 0.2, 0.2)
        for schedule in range(16):
            sim = Simulation(seed=1, schedule=schedule)
            woke = []

            def proc(name, delay):
                yield sim.timeout(delay)
                woke.append((name, delay, sim.now))

            for index, delay in enumerate(delays):
                sim.process(proc(f"p{index}", delay), name=f"p{index}")
            sim.run(until=10.0)
            assert len(woke) == len(delays)
            assert all(now == delay for _name, delay, now in woke)
            assert [now for _name, _delay, now in woke] == sorted(
                now for _name, _delay, now in woke)

    def test_no_perturb_is_fifo(self):
        sim = Simulation(seed=1)
        order = []

        def proc(name):
            yield sim.timeout(1.0)
            order.append(name)

        sim.process(proc("a"), name="a")
        sim.process(proc("b"), name="b")
        sim.run(until=5.0)
        assert order == ["a", "b"]


class TestDivergenceObject:
    def test_component_property_prefers_a(self):
        class E:
            component = "syncer"
        divergence = Divergence(3, E(), None)
        assert divergence.component == "syncer"
