"""Tier-1 guard on what an idle tenant costs the host
(``scripts/tenant_cost.py`` at a smaller scale): 20 tenants provisioned
and idled 30 sim-s.

Exact or deterministic measures only — object counts and
tracemalloc-traced bytes, no clock and no RSS — so the bounds hold on
any machine.
"""

import importlib.util
import os
import sys

import pytest

TENANT_COST_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                                os.pardir, "scripts", "tenant_cost.py")

TENANTS = 20

# Bytes an idle tenant keeps allocated, traced after a warm-up tenant
# has paid the one-time costs: 171–175 KB while every watch channel,
# work queue and fair-queue lane held empty ``collections.deque``s
# (760 B each, 56 per tenant) and every informer cache maintained
# namespace and label postings nobody queried; 127–130 KB with list
# FIFOs and indexes built on first query.  The bound is 130.2 KB plus
# 5 %.
TRACED_BYTES_PER_TENANT_BOUND = 130.2 * 1024 * 1.05


def _load_tenant_cost():
    spec = importlib.util.spec_from_file_location("tenant_cost",
                                                  TENANT_COST_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tenant_cost():
    module = _load_tenant_cost()
    module.idle_env(tenants=1, idle=0.0)    # warm-up: imports, serde codegen
    return module


def test_an_idle_tenant_creates_no_deque(tenant_cost):
    cost = tenant_cost.untraced_cost(TENANTS)
    assert cost["gc_objects"] > 0
    assert cost["deques"] == 0


def test_an_idle_tenant_keeps_few_bytes(tenant_cost):
    total, packages, _lines = tenant_cost.traced_cost(TENANTS)
    assert packages["repro.clientgo"] > 0
    assert 0 < total <= TRACED_BYTES_PER_TENANT_BOUND, total / 1024


def test_a_call_hook_does_not_inflate_the_bytes(tenant_cost):
    """Under a call hook (a coverage tool, ``scripts/reach.py``) CPython
    keeps a frame object per parked generator; the probe measures
    without it, and puts the hook back."""
    def hook(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        total, _packages, _lines = tenant_cost.traced_cost(TENANTS)
        assert sys.gettrace() is hook
    finally:
        sys.settrace(previous)
    assert 0 < total <= TRACED_BYTES_PER_TENANT_BOUND, total / 1024
