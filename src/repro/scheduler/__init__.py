"""The super cluster's sequential default scheduler."""

from .plugins import (
    BalancedPodCount,
    ClusterSnapshot,
    FilterPlugin,
    InterPodAffinity,
    LeastAllocated,
    NodeReady,
    NodeResourcesFit,
    NodeSelectorMatch,
    NodeUnschedulable,
    ScorePlugin,
    TaintToleration,
    default_filters,
    default_scorers,
)
from .scheduler import Scheduler

__all__ = [name for name in dir() if not name.startswith("_")]
