"""Unit tests for the load generator and stress-result containers."""

import pytest

from repro.apiserver import ADMIN, APIServer
from repro.clientgo import Client
from repro.objects import make_namespace
from repro.simkernel import Simulation
from repro.workloads import LoadGenerator, StressResult, TenantLoadPattern


@pytest.fixture
def setup():
    sim = Simulation()
    api = APIServer(sim, "api")
    client = Client(sim, api, ADMIN, qps=100000, burst=100000)
    sim.run(until=sim.process(client.create(make_namespace("default"))))
    return sim, api, client


def pod_count(api):
    return api.store.count_prefix("/registry/pods/")


class TestLoadGenerator:
    def test_paced_submission_rate(self, setup):
        sim, api, client = setup
        generator = LoadGenerator(sim)
        pattern = TenantLoadPattern(10, mode="paced", rate=2.0)
        sim.run(until=sim.process(
            generator.run_tenant_load(client, pattern)))
        assert generator.submitted == 10
        assert pod_count(api) == 10
        # 10 pods at 2/s: last submit near 4.5-5s.
        assert generator.last_submit >= 4.0

    def test_burst_submission_is_concurrent(self, setup):
        sim, api, client = setup
        generator = LoadGenerator(sim)
        pattern = TenantLoadPattern(50, mode="burst")
        sim.run(until=sim.process(
            generator.run_tenant_load(client, pattern)))
        assert generator.submitted == 50
        # Burst: everything lands within a fraction of a second.
        assert generator.last_submit - generator.first_submit < 0.5

    def test_sequential_submission(self, setup):
        sim, api, client = setup
        generator = LoadGenerator(sim)
        pattern = TenantLoadPattern(5, mode="sequential")
        sim.run(until=sim.process(
            generator.run_tenant_load(client, pattern)))
        assert generator.submitted == 5

    def test_run_all_fans_out(self, setup):
        sim, api, client = setup
        generator = LoadGenerator(sim)
        jobs = [(client, TenantLoadPattern(5, mode="burst",
                                           name_prefix=f"j{i}"))
                for i in range(3)]
        sim.run(until=sim.process(generator.run_all(jobs)))
        assert generator.submitted == 15
        assert pod_count(api) == 15

    def test_errors_counted_not_raised(self, setup):
        sim, api, client = setup
        generator = LoadGenerator(sim)
        # Same name prefix + same indices = duplicate names -> errors.
        pattern = TenantLoadPattern(3, mode="sequential",
                                    name_prefix="dup")
        sim.run(until=sim.process(
            generator.run_tenant_load(client, pattern)))
        sim.run(until=sim.process(
            generator.run_tenant_load(client, pattern)))
        assert generator.errors == 3
        assert generator.submitted == 3


class TestStressResult:
    def _result(self, values):
        return StressResult(mode="t", num_pods=len(values), num_tenants=1,
                            creation_times=values)

    def test_mean_and_percentiles(self):
        result = self._result([1.0, 2.0, 3.0, 4.0])
        assert result.mean == 2.5
        assert result.percentile(0) == 1.0
        assert result.percentile(100) == 4.0
        assert result.percentile(50) in (2.0, 3.0)

    def test_empty(self):
        result = self._result([])
        assert result.mean == 0.0
        assert result.percentile(99) == 0.0
