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

import sys

import pytest

from repro.objects.base import Serializable, set_freeze_guard

set_freeze_guard(True)

_SLOW_BUCKETS = ("soak", "scenario")


def pytest_collection_modifyitems(items):
    for item in items:
        if all(bucket not in item.keywords for bucket in _SLOW_BUCKETS):
            item.add_marker(pytest.mark.tier1)


def api_types(cls=Serializable):
    """Every API type defined so far (each has its own generated serde)."""
    for sub in cls.__subclasses__():
        yield sub
        yield from api_types(sub)


@pytest.fixture
def copy_calls(monkeypatch):
    """``(module, function)`` of the caller of every top-level ``copy()``
    of an API object made while the test runs; the child copies a
    ``copy()`` makes of its own fields are not counted."""
    calls = []
    depth = [0]

    def counting(original):
        def copy(obj):
            if not depth[0]:
                caller = sys._getframe(1)
                calls.append((caller.f_globals["__name__"],
                              caller.f_code.co_name))
            depth[0] += 1
            try:
                return original(obj)
            finally:
                depth[0] -= 1
        return copy

    for cls in api_types():
        monkeypatch.setattr(cls, "copy", counting(cls.copy))
    return calls
