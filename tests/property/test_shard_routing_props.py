"""Shard-routing determinism: crc32 routing is bytes-deterministic.

The sharded fair queue routes tenants with ``crc32(tenant.encode())``
— a pure function of the tenant name's UTF-8 bytes, identical in every
Python process.  The golden values below were computed once and
committed: if ``shard_hash`` ever picks up process-dependent input
(``str()`` of an object, ``hash()``, ``id()``) or a different digest,
these pins fail — the "across process restarts" guarantee in test
form, since a fresh interpreter must reproduce the same constants.
"""

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clientgo import FairWorkQueue, shard_hash
from repro.simkernel import Simulation

# (tenant, crc32, shard at shards=2, shard at shards=4) — committed
# constants from a separate interpreter run; never recompute in-test.
GOLDEN = [
    ("tenant-0", 2364029289, 1, 1),
    ("tenant-1", 4226746879, 1, 3),
    ("tenant-2", 1659263045, 1, 1),
    ("alpha", 3504355690, 0, 2),
    ("beta", 2408645731, 1, 3),
    ("prod/team-a", 2449238821, 1, 1),
]


class TestGoldenRouting:
    @pytest.mark.parametrize("tenant,crc,shard2,shard4", GOLDEN)
    def test_shard_hash_pinned(self, tenant, crc, shard2, shard4):
        assert shard_hash(tenant) == crc
        assert shard_hash(tenant) % 2 == shard2
        assert shard_hash(tenant) % 4 == shard4

    @pytest.mark.parametrize("tenant,crc,shard2,shard4", GOLDEN)
    def test_queue_routes_by_pinned_hash(self, tenant, crc, shard2,
                                         shard4):
        queue = FairWorkQueue(Simulation(), shards=4)
        assert queue.shard_of(tenant) == shard4


class TestHashProperties:
    @given(st.text(min_size=1, max_size=40))
    def test_matches_crc32_of_utf8_bytes(self, tenant):
        assert shard_hash(tenant) == zlib.crc32(tenant.encode("utf-8"))

    @given(st.text(min_size=1, max_size=40))
    def test_stable_across_calls(self, tenant):
        assert shard_hash(tenant) == shard_hash(tenant)

    @given(st.text(min_size=1, max_size=40),
           st.integers(min_value=1, max_value=8))
    def test_routing_in_range(self, tenant, shards):
        assert 0 <= shard_hash(tenant) % shards < shards

    @pytest.mark.parametrize("bad", [None, 7, 3.5, b"tenant-0",
                                     ("tenant", 0), object()])
    def test_non_str_rejected(self, bad):
        """D006 guard: no silent str() fallback onto default reprs."""
        with pytest.raises(TypeError):
            shard_hash(bad)


class TestAssignmentStability:
    @given(st.lists(st.sampled_from(
        [t for t, _, _, _ in GOLDEN]), min_size=1, max_size=20))
    def test_two_fresh_queues_agree(self, tenants):
        """Same tenant stream → same shard map in a rebuilt queue,
        regardless of first-use order (restart simulation)."""
        forward = FairWorkQueue(Simulation(), shards=4)
        backward = FairWorkQueue(Simulation(), shards=4)
        for tenant in tenants:
            forward.shard_of(tenant)
        for tenant in reversed(tenants):
            backward.shard_of(tenant)
        for tenant in set(tenants):
            assert forward.shard_of(tenant) == backward.shard_of(tenant)
