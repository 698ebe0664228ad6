"""Shared test configuration: tier-1 marking.

Every test under ``tests/`` is auto-marked ``tier1`` unless it opted
into a slower bucket (``soak``, or the ``scenario`` corpus conformance
suite — which marks its own fast subset tier1 explicitly), so the
tier-1 gate can be invoked as ``pytest -m tier1`` — see
``scripts/tier1.sh``, which also enforces the coverage floor when
``pytest-cov`` is installed.

The whole suite runs with the object plane's freeze guard on: a test (or
the code under it) that mutates a shared snapshot or a stored wire value
fails with ``FrozenError`` at the mutation site.
"""

import pytest

from repro.objects.base import set_freeze_guard

set_freeze_guard(True)

_SLOW_BUCKETS = ("soak", "scenario")


def pytest_collection_modifyitems(items):
    for item in items:
        if all(bucket not in item.keywords for bucket in _SLOW_BUCKETS):
            item.add_marker(pytest.mark.tier1)
