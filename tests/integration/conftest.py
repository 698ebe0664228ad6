"""Shared fixtures for integration tests: a small VirtualCluster deployment."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.core import VirtualClusterEnv


@pytest.fixture
def env():
    """3 virtual-kubelet nodes, fast tenant provisioning."""
    environment = VirtualClusterEnv(
        num_virtual_nodes=3,
        config=DEFAULT_CONFIG.with_overrides(syncer={"scan_interval": 5.0}))
    environment.bootstrap()
    return environment


@pytest.fixture
def tenant(env):
    return env.run_coroutine(env.create_tenant("acme"))


@pytest.fixture
def two_tenants(env):
    a = env.run_coroutine(env.create_tenant("acme"))
    b = env.run_coroutine(env.create_tenant("globex"))
    return a, b
