"""Authentication.

Authentication is certificate-shaped: a :class:`Credential` carries the
user name, groups, and a certificate hash.  The cert hash is what the
vn-agent compares against the hash stored in each VirtualCluster object to
identify which tenant a kubelet-API request belongs to (paper §III-B(3)).

There is no authorizer: every authenticated request is allowed, as for
a tenant who is cluster-admin of their own control plane.  The RBAC
kinds (Role, ClusterRole and their bindings) are stored and synced as
ordinary API objects.
"""

import hashlib

from .errors import Unauthorized


class Credential:
    """An authenticated identity presented with each request."""

    __slots__ = ("user", "groups", "cert_hash")

    def __init__(self, user, groups=()):
        self.user = user
        self.groups = tuple(groups)
        # Deterministic synthetic certificate per user.
        self.cert_hash = hash_certificate(f"CERT::{user}")

    def __repr__(self):
        return f"<Credential {self.user!r} groups={list(self.groups)}>"


def hash_certificate(cert_pem):
    """SHA-256 hash of a (synthetic) certificate, hex encoded.

    Requires a ``str``: hashing ``str()`` of an arbitrary object would
    bake its default repr — a memory address — into the "stable" hash
    (linter rule D006).
    """
    if not isinstance(cert_pem, str):
        raise TypeError(
            f"hash_certificate needs the certificate PEM as str, "
            f"got {type(cert_pem).__name__}")
    return hashlib.sha256(cert_pem.encode()).hexdigest()


ADMIN = Credential("admin", groups=("system:masters",))


class Authenticator:
    """Validates that the presented credential is known to this server."""

    def __init__(self):
        self._known = {}

    def register(self, credential):
        self._known[credential.cert_hash] = credential
        return credential

    def authenticate(self, credential):
        if credential is None:
            raise Unauthorized("no credential presented")
        known = self._known.get(credential.cert_hash)
        if known is None:
            raise Unauthorized(f"unknown certificate for {credential.user!r}")
        return known
