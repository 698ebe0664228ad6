"""Unit tests for the fair (WRR) work queue — the paper's §III-C extension."""

import pytest

from repro.clientgo import FairWorkQueue, ShutDown
from repro.simkernel import Simulation


@pytest.fixture
def sim():
    return Simulation()


def drain_all(sim, queue, count):
    """Take ``count`` items sequentially; returns [(tenant, key)]."""
    taken = []

    def worker():
        for _ in range(count):
            tenant, key, _enqueued = yield queue.get()
            taken.append((tenant, key))
            queue.done(tenant, key)

    process = sim.process(worker())
    sim.run(until=process)
    return taken


class TestRoundRobin:
    def test_equal_weights_interleave(self, sim):
        queue = FairWorkQueue(sim)
        for i in range(3):
            queue.add("A", f"a{i}")
        for i in range(3):
            queue.add("B", f"b{i}")
        taken = drain_all(sim, queue, 6)
        tenants = [tenant for tenant, _key in taken]
        # Strict alternation with equal weights.
        assert tenants == ["A", "B", "A", "B", "A", "B"]

    def test_burst_tenant_cannot_starve_others(self, sim):
        queue = FairWorkQueue(sim)
        for i in range(100):
            queue.add("greedy", f"g{i}")
        queue.add("regular", "r0")
        taken = drain_all(sim, queue, 4)
        # The regular tenant's single item is served within one WRR round.
        positions = [i for i, (tenant, _key) in enumerate(taken)
                     if tenant == "regular"]
        assert positions and positions[0] <= 1

    def test_weighted_dispatch_ratio(self, sim):
        queue = FairWorkQueue(sim)
        queue.register_tenant("heavy", weight=3)
        queue.register_tenant("light", weight=1)
        for i in range(30):
            queue.add("heavy", f"h{i}")
        for i in range(30):
            queue.add("light", f"l{i}")
        taken = drain_all(sim, queue, 16)
        heavy = sum(1 for tenant, _k in taken if tenant == "heavy")
        light = sum(1 for tenant, _k in taken if tenant == "light")
        assert heavy == pytest.approx(3 * light, abs=2)

    def test_unfair_mode_is_fifo(self, sim):
        queue = FairWorkQueue(sim, fair=False)
        for i in range(50):
            queue.add("greedy", f"g{i}")
        queue.add("regular", "r0")
        taken = drain_all(sim, queue, 51)
        assert taken[-1] == ("regular", "r0")

    def test_empty_tenant_skipped(self, sim):
        queue = FairWorkQueue(sim)
        queue.register_tenant("empty")
        queue.add("busy", "b0")
        assert drain_all(sim, queue, 1) == [("busy", "b0")]


class TestDedup:
    def test_dedup_same_key(self, sim):
        queue = FairWorkQueue(sim)
        queue.add("A", "k")
        queue.add("A", "k")
        assert len(queue) == 1
        assert queue.deduped_total == 1

    def test_same_key_different_tenants_not_deduped(self, sim):
        queue = FairWorkQueue(sim)
        queue.add("A", "k")
        queue.add("B", "k")
        assert len(queue) == 2

    def test_readd_while_processing(self, sim):
        queue = FairWorkQueue(sim)
        queue.add("A", "k")
        order = []

        def worker():
            tenant, key, _t = yield queue.get()
            order.append("first")
            queue.add(tenant, key)
            queue.done(tenant, key)
            tenant, key, _t = yield queue.get()
            order.append("second")
            queue.done(tenant, key)

        sim.run(until=sim.process(worker()))
        assert order == ["first", "second"]


class TestLifecycle:
    def test_blocking_get(self, sim):
        queue = FairWorkQueue(sim)
        got = []

        def worker():
            tenant, key, _t = yield queue.get()
            got.append((tenant, key, sim.now))

        def producer():
            yield sim.timeout(2)
            queue.add("T", "x")

        sim.process(worker())
        sim.process(producer())
        sim.run()
        assert got == [("T", "x", 2)]

    def test_shutdown(self, sim):
        queue = FairWorkQueue(sim)
        failures = []

        def worker():
            try:
                yield queue.get()
            except ShutDown:
                failures.append(True)

        sim.process(worker())

        def closer():
            yield sim.timeout(1)
            queue.shutdown()

        sim.process(closer())
        sim.run()
        assert failures == [True]

    def test_remove_tenant_discards_pending(self, sim):
        queue = FairWorkQueue(sim)
        queue.add("A", "a0")
        queue.add("B", "b0")
        queue.remove_tenant("A")
        assert len(queue) == 1
        assert drain_all(sim, queue, 1) == [("B", "b0")]

    def test_remove_before_cursor_preserves_rotation(self, sim):
        """Regression: removing a tenant that sits *before* the WRR
        cursor must pull the cursor back one slot, or the tenant whose
        turn is next silently loses it."""
        queue = FairWorkQueue(sim)
        for tenant in ("A", "B", "C"):
            for i in range(2):
                queue.add(tenant, f"{tenant.lower()}{i}")
        # Serve exactly one item (A's), advancing the cursor past A.
        assert drain_all(sim, queue, 1) == [("A", "a0")]
        queue.remove_tenant("A")
        # B's turn is next; the old code left the cursor pointing at C.
        assert drain_all(sim, queue, 4) == [
            ("B", "b0"), ("C", "c0"), ("B", "b1"), ("C", "c1")]

    def test_remove_at_cursor_serves_next_tenant(self, sim):
        queue = FairWorkQueue(sim)
        for tenant in ("A", "B", "C"):
            queue.add(tenant, f"{tenant.lower()}0")
        # Cursor still on A (nothing served); removing A hands the turn
        # to B without skipping anyone.
        queue.remove_tenant("A")
        assert drain_all(sim, queue, 2) == [("B", "b0"), ("C", "c0")]

    def test_wait_time_by_tenant_tracked(self, sim):
        queue = FairWorkQueue(sim)

        def producer():
            queue.add("A", "x")
            yield sim.timeout(0)

        def worker():
            yield sim.timeout(5)
            tenant, key, enqueued = yield queue.get()
            queue.done(tenant, key)

        sim.process(producer())
        process = sim.process(worker())
        sim.run(until=process)
        assert queue.wait_time_by_tenant["A"] == pytest.approx(5)
        dispatched = sim.telemetry.registry.get("fairqueue_dispatch_total")
        assert dispatched.labels(queue="fair-queue-shard0",
                                 tenant="A").value == 1

    def test_stats(self, sim):
        queue = FairWorkQueue(sim)
        queue.add("A", "x")
        stats = queue.stats()
        assert stats["depth"] == 1
        assert stats["tenants"] == 1


class TestWeightValidation:
    """Regression: ``weight=0`` used to be silently coerced to the
    default weight (``weight or default``); non-positive weights are now
    rejected instead of either starving the tenant or masking the bug."""

    def test_zero_weight_rejected(self, sim):
        queue = FairWorkQueue(sim)
        with pytest.raises(ValueError, match="must be positive"):
            queue.register_tenant("T", weight=0)
        assert "T" not in queue.tenants

    def test_negative_weight_rejected(self, sim):
        queue = FairWorkQueue(sim)
        with pytest.raises(ValueError, match="must be positive"):
            queue.register_tenant("T", weight=-3)

    def test_explicit_weight_not_coerced(self, sim):
        queue = FairWorkQueue(sim)
        queue.register_tenant("T", weight=2)
        assert queue._lanes["T"].weight == 2

    def test_none_weight_uses_default(self, sim):
        queue = FairWorkQueue(sim)
        queue.register_tenant("T")
        assert queue._lanes["T"].weight == FairWorkQueue.default_weight == 1

    def test_sharded_zero_weight_rejected(self, sim):
        queue = FairWorkQueue(sim, shards=2)
        with pytest.raises(ValueError, match="must be positive"):
            queue.register_tenant("T", weight=0)
        assert "T" not in queue.tenants

    def test_sharded_explicit_weight_propagates(self, sim):
        queue = FairWorkQueue(sim, shards=2)
        queue.register_tenant("T", weight=2)
        lane = queue._lanes["T"]
        assert lane.weight == 2
        assert lane.shard is queue._shards[queue.shard_of("T")]


class TestUnfairRemoveTenant:
    def test_removed_tenant_work_does_not_outlive_it(self, sim):
        """``fair=False``: remove_tenant drops the tenant's pending items
        from the shared lane, and a late done() of a dirty in-flight item
        neither re-queues it nor re-registers the tenant."""
        queue = FairWorkQueue(sim, fair=False)
        queue.add("a", "k1")
        queue.add("a", "k2")
        assert queue.get().value[:2] == ("a", "k1")
        queue.add("a", "k1")  # dirty while processing
        queue.remove_tenant("a")
        queue.done("a", "k1")
        assert len(queue) == 0
        assert queue.tenants == []
        assert not queue.get().triggered


# (shards, fair) -> dispatch sequence of ``dispatch_script``, recorded
# once before sharding and unfair mode were folded into one class, and
# committed; never recompute in-test.
PINNED_WEIGHTS = (("alpha", 1), ("beta", 2), ("tenant-0", 1))
PINNED_ORDER = {
    (1, True): [
        (0, "alpha", "k0"), (0, "beta", "k0"), (0, "beta", "k1"),
        (0, "tenant-0", "k0"), (0, "alpha", "k1"), (0, "beta", "k2"),
        (0, "beta", "k0"), (0, "tenant-0", "k1"), (0, "alpha", "k2"),
        (0, "tenant-0", "k2"), (0, "alpha", "late")],
    (2, True): [
        (0, "alpha", "k0"), (1, "beta", "k0"), (0, "alpha", "k1"),
        (1, "beta", "k1"), (0, "alpha", "k2"), (1, "tenant-0", "k0"),
        (0, "alpha", "late"), (1, "beta", "k2"), (1, "beta", "k0"),
        (1, "tenant-0", "k1"), (1, "tenant-0", "k2")],
    (1, False): [
        (0, "alpha", "k0"), (0, "beta", "k0"), (0, "tenant-0", "k0"),
        (0, "alpha", "k1"), (0, "beta", "k1"), (0, "tenant-0", "k1"),
        (0, "alpha", "k2"), (0, "beta", "k2"), (0, "tenant-0", "k2"),
        (0, "alpha", "late"), (0, "beta", "k0")],
}


def dispatch_script(queue):
    """Fixed add/get/done script: three tenants (weights 1/2/1), each
    shard served in turn, and beta's first item re-added while it is
    processing (re-queued when its done() comes six dispatches later)."""
    for tenant, weight in PINNED_WEIGHTS:
        queue.register_tenant(tenant, weight=weight)
    for index in range(3):
        for tenant, _weight in PINNED_WEIGHTS:
            queue.add(tenant, f"k{index}")
    taken = []
    held = None
    released = False
    while len(queue) or not released:
        for shard, depth in enumerate(queue.stats()["depth_by_shard"]):
            if not depth:
                continue
            tenant, key, _enqueued = queue.get(shard).value
            taken.append((shard, tenant, key))
            if held is None and tenant == "beta":
                held = (tenant, key)
                queue.add(tenant, key)
                queue.add("alpha", "late")
                continue
            queue.done(tenant, key)
        if not released and (len(taken) >= 6 or not len(queue)):
            queue.done(*held)
            released = True
    return taken


@pytest.mark.parametrize("shards,fair", sorted(PINNED_ORDER))
def test_dispatch_order_pinned(sim, shards, fair):
    queue = FairWorkQueue(sim, shards=shards, fair=fair)
    assert dispatch_script(queue) == PINNED_ORDER[shards, fair]
