"""Workload generation for the evaluation, and the stress-run summary."""

from .loadgen import (
    LoadGenerator,
    TenantLoadPattern,
    TimedActions,
    even_split,
)
from .stress import StressResult

__all__ = [
    "LoadGenerator",
    "StressResult",
    "TenantLoadPattern",
    "TimedActions",
    "even_split",
]
