"""Multiple super clusters (§V future work #3, implemented here)."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.federation import FleetCapacityError, SuperClusterFleet


@pytest.fixture
def fleet():
    fleet = SuperClusterFleet(
        num_super_clusters=2, nodes_per_cluster=2,
        config=DEFAULT_CONFIG.with_overrides(syncer={"scan_interval": 30.0}))
    fleet.bootstrap()
    return fleet


class TestFleetPlacement:
    def test_tenants_spread_across_members(self, fleet):
        handles = [fleet.run_coroutine(fleet.create_tenant(f"t{i}"))
                   for i in range(4)]
        # Place pods so load alternates members.
        for handle in handles:
            fleet.run_coroutine(handle.create_pod("w"))
            fleet.run_until_pods_ready(handle, ["default/w"], timeout=60)
        members = {fleet.member_of(handle).name for handle in handles}
        assert len(members) == 2  # both super clusters in use

    def test_tenant_unaware_of_fleet(self, fleet):
        handle = fleet.run_coroutine(fleet.create_tenant("oblivious"))
        fleet.run_coroutine(handle.create_pod("w"))
        fleet.run_until_pods_ready(handle, ["default/w"], timeout=60)
        # The tenant's view contains no fleet/member concepts: it sees
        # one vNode (named after a physical node of *its* member) and its
        # own namespaces — the same experience as a single super cluster.
        nodes, _rv = fleet.run_coroutine(handle.client.list("nodes"))
        assert len(nodes) == 1
        pod = fleet.run_coroutine(handle.get_pod("w"))
        assert pod.status.is_ready

    def test_full_member_skipped(self, fleet):
        # Shrink member 0's capacity to (almost) nothing by marking its
        # nodes unschedulable-equivalent: fill its pod capacity count.
        member0 = fleet.members[0]
        used, total = fleet.capacity_of(member0)
        admin = member0.super_admin_client()

        def cram():
            from repro.objects import make_pod

            for index in range(total - used):
                yield from admin.create(
                    make_pod(f"filler-{index:04d}", namespace="default",
                             node_name="unknown-node"))

        fleet.run_coroutine(cram())
        chosen = fleet.pick_member()
        assert chosen is fleet.members[1]

    def test_capacity_error_when_all_full(self):
        fleet = SuperClusterFleet(num_super_clusters=1, nodes_per_cluster=0)
        fleet.bootstrap()
        with pytest.raises(FleetCapacityError):
            fleet.pick_member()

    def test_isolated_control_planes_across_members(self, fleet):
        a = fleet.run_coroutine(fleet.create_tenant("alpha"))
        b = fleet.run_coroutine(fleet.create_tenant("beta"))
        fleet.run_coroutine(a.create_pod("w"))
        fleet.run_until_pods_ready(a, ["default/w"], timeout=60)
        # Regardless of member placement, tenant B sees nothing of A.
        pods, _rv = fleet.run_coroutine(b.client.list("pods",
                                                      namespace="default"))
        assert pods == []

    def test_delete_tenant_releases_member(self, fleet):
        handle = fleet.run_coroutine(fleet.create_tenant("short-lived"))
        member = fleet.member_of(handle)
        fleet.run_coroutine(fleet.delete_tenant(handle))
        assert fleet.member_of(handle) is None
        assert handle.key not in member.syncer.tenants
