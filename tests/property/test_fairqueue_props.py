"""Property-based tests for work-queue invariants.

The paper's fairness and boundedness arguments rest on two queue
invariants: every added key is eventually dispatched (no loss), and no
key is pending twice (dedup).  The WRR queue must additionally bound how
long any tenant's item can wait relative to others.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clientgo import FairWorkQueue, WorkQueue, shard_hash
from repro.simkernel import Simulation

tenant_names = st.sampled_from(["t0", "t1", "t2", "t3"])
key_names = st.sampled_from([f"k{i}" for i in range(8)])
add_sequences = st.lists(st.tuples(tenant_names, key_names),
                         min_size=1, max_size=60)


def drain_fair(queue, sim):
    taken = []

    def worker():
        while len(queue):
            tenant, key, _t = yield queue.get()
            taken.append((tenant, key))
            queue.done(tenant, key)

    sim.run(until=sim.process(worker()))
    return taken


@given(add_sequences)
@settings(max_examples=200)
def test_every_unique_item_dispatched_exactly_once(adds):
    sim = Simulation()
    queue = FairWorkQueue(sim)
    for tenant, key in adds:
        queue.add(tenant, key)
    taken = drain_fair(queue, sim)
    assert sorted(set(taken)) == sorted(set(adds))
    assert len(taken) == len(set(taken))


@given(add_sequences, st.booleans())
@settings(max_examples=100)
def test_fair_and_unfair_dispatch_same_set(adds, fair):
    sim = Simulation()
    queue = FairWorkQueue(sim, fair=fair)
    for tenant, key in adds:
        queue.add(tenant, key)
    taken = drain_fair(queue, sim)
    assert set(taken) == set(adds)


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=50)
def test_wrr_interleaving_bound(greedy_count, regular_count):
    """With equal weights, between two consecutive dispatches of one
    tenant every other backlogged tenant is served at least once."""
    sim = Simulation()
    queue = FairWorkQueue(sim)
    for i in range(greedy_count):
        queue.add("greedy", f"g{i}")
    for i in range(regular_count):
        queue.add("regular", f"r{i}")
    taken = drain_fair(queue, sim)
    greedy_streak = 0
    regular_left = regular_count
    for tenant, _key in taken:
        if tenant == "greedy":
            greedy_streak += 1
            if regular_left > 0:
                assert greedy_streak <= 2
        else:
            greedy_streak = 0
            regular_left -= 1


@given(add_sequences)
@settings(max_examples=100)
def test_plain_workqueue_preserves_first_add_order(adds):
    sim = Simulation()
    queue = WorkQueue(sim)
    first_positions = {}
    for index, (tenant, key) in enumerate(adds):
        item = (tenant, key)
        if item not in first_positions:
            first_positions[item] = index
        queue.add(item)
    taken = []

    def worker():
        while len(queue):
            item, _t = yield queue.get()
            taken.append(item)
            queue.done(item)

    sim.run(until=sim.process(worker()))
    expected = sorted(first_positions, key=first_positions.get)
    assert taken == expected


@given(add_sequences)
@settings(max_examples=50)
def test_depth_never_exceeds_unique_items(adds):
    sim = Simulation()
    queue = FairWorkQueue(sim)
    for tenant, key in adds:
        queue.add(tenant, key)
        assert len(queue) <= len(set(adds))


# ----------------------------------------------------------------------
# Sharded FairWorkQueue (DESIGN.md §9): the sharded dispatch path must
# keep every single-queue invariant — exactly-once, dedup, WRR bounds —
# while routing each tenant to exactly one shard.
# ----------------------------------------------------------------------

shard_counts = st.integers(min_value=1, max_value=4)


def drain_sharded(queue, sim, record_shards=None):
    """Drain every shard with one worker each; returns (tenant, key)s."""
    taken = []

    def worker(shard):
        while queue.stats()["depth_by_shard"][shard]:
            tenant, key, _t = yield queue.get(shard)
            taken.append((tenant, key))
            if record_shards is not None:
                record_shards.setdefault(tenant, set()).add(shard)
            queue.done(tenant, key)

    processes = [sim.process(worker(shard))
                 for shard in range(queue.num_shards)]
    for process in processes:
        sim.run(until=process)
    return taken


@given(add_sequences, shard_counts)
@settings(max_examples=150)
def test_sharded_every_unique_item_dispatched_exactly_once(adds, shards):
    sim = Simulation()
    queue = FairWorkQueue(sim, shards=shards)
    for tenant, key in adds:
        queue.add(tenant, key)
    taken = drain_sharded(queue, sim)
    assert sorted(set(taken)) == sorted(set(adds))
    assert len(taken) == len(set(taken))


@given(add_sequences, shard_counts)
@settings(max_examples=100)
def test_sharded_tenant_served_by_exactly_one_shard(adds, shards):
    sim = Simulation()
    queue = FairWorkQueue(sim, shards=shards)
    for tenant, key in adds:
        queue.add(tenant, key)
    served_by = {}
    drain_sharded(queue, sim, record_shards=served_by)
    for tenant, shard_set in served_by.items():
        assert len(shard_set) == 1
        (shard,) = shard_set
        assert shard == shard_hash(tenant) % shards


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=50)
def test_sharded_wrr_bound_within_a_shard(greedy_count, regular_count):
    """Two equal-weight tenants forced onto the same shard keep the
    single-queue interleaving bound (greedy streak <= 2 while the
    regular tenant is backlogged)."""
    # Find two tenant names that collide under crc32 % 2.
    names = [f"tenant-{i}" for i in range(16)]
    shard0 = [name for name in names if shard_hash(name) % 2 == 0]
    greedy, regular = shard0[0], shard0[1]
    sim = Simulation()
    queue = FairWorkQueue(sim, shards=2)
    for i in range(greedy_count):
        queue.add(greedy, f"g{i}")
    for i in range(regular_count):
        queue.add(regular, f"r{i}")
    taken = drain_sharded(queue, sim)
    greedy_streak = 0
    regular_left = regular_count
    for tenant, _key in taken:
        if tenant == greedy:
            greedy_streak += 1
            if regular_left > 0:
                assert greedy_streak <= 2
        else:
            greedy_streak = 0
            regular_left -= 1
