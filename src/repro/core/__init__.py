"""VirtualCluster core: the paper's contribution.

Tenant operator + VC CRD, tenant control planes, the centralized
resource syncer (fair queuing, periodic scan, vNodes), and the vn-agent.
"""

from .controlplane import ControlPlane, SuperCluster, TenantControlPlane
from .swapper import IdleSwapper, control_plane_memory
from .crd import (
    VirtualCluster,
    cluster_prefix,
    make_virtual_cluster,
    short_uid_hash,
    super_namespace,
)
from .env import TenantHandle, VirtualClusterEnv
from .syncer.conversion import (
    tenant_key,
    tenant_origin,
    to_super,
    to_super_pod,
)
from .syncer.syncer import Syncer
from .syncer.tracing import PHASES, PodTrace, TraceStore
from .tenant_operator import TenantOperator
from .vn_agent import VnAgent

__all__ = [
    "ControlPlane",
    "IdleSwapper",
    "PHASES",
    "PodTrace",
    "SuperCluster",
    "Syncer",
    "TenantControlPlane",
    "TenantHandle",
    "TenantOperator",
    "TraceStore",
    "VirtualCluster",
    "VirtualClusterEnv",
    "VnAgent",
    "cluster_prefix",
    "control_plane_memory",
    "make_virtual_cluster",
    "short_uid_hash",
    "super_namespace",
    "tenant_key",
    "tenant_origin",
    "to_super",
    "to_super_pod",
]
