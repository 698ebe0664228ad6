"""The simulated Kubernetes apiserver (one per control plane)."""

from .admission import (
    AdmissionPlugin,
    AdmissionRequest,
    ClusterIPAllocator,
    NamespaceLifecycle,
    PodDefaults,
    QuotaEnforcer,
    default_admission_chain,
)
from .auth import (
    ADMIN,
    AllowAllAuthorizer,
    Authenticator,
    Credential,
    RBACAuthorizer,
    hash_certificate,
)
from .errors import (
    AlreadyExists,
    ApiError,
    BadRequest,
    Conflict,
    FencingConflict,
    Forbidden,
    Invalid,
    NotFound,
    ServerUnavailable,
    Timeout,
    TooManyRequests,
    Unauthorized,
    is_retryable,
)
from .apf import APFLimiter, FlowClassifier, TIER_RANK
from .registry import ResourceRegistry
from .server import APIServer, WatchStream

__all__ = [name for name in dir() if not name.startswith("_")]
