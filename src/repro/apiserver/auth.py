"""Authentication and RBAC authorization.

Authentication is certificate-shaped: a :class:`Credential` carries the
user name, groups, and a certificate hash.  The cert hash is what the
vn-agent compares against the hash stored in each VirtualCluster object to
identify which tenant a kubelet-API request belongs to (paper §III-B(3)).

Authorization implements the RBAC model over Role/ClusterRole(+Binding)
objects stored in the same control plane.
"""

import hashlib

from .errors import Forbidden, Unauthorized


class Credential:
    """An authenticated identity presented with each request."""

    __slots__ = ("user", "groups", "cert_hash")

    def __init__(self, user, groups=()):
        self.user = user
        self.groups = tuple(groups)
        # Deterministic synthetic certificate per user.
        self.cert_hash = hash_certificate(f"CERT::{user}")

    @property
    def is_admin(self):
        return "system:masters" in self.groups

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


class RBACAuthorizer:
    """RBAC over stored Role/ClusterRole/Binding objects.

    Reads the authoritative objects from the apiserver's storage through a
    narrow reader interface (``read_all(plural)`` returning typed objects)
    so it observes the same state clients do.
    """

    def __init__(self, reader):
        self._reader = reader

    def authorize(self, credential, verb, resource, namespace=None,
                  name=None):
        """Raise :class:`Forbidden` unless the request is allowed."""
        if credential.is_admin:
            return
        if self._allowed_by_cluster_bindings(credential, verb, resource, name):
            return
        if namespace and self._allowed_by_namespace_bindings(
                credential, verb, resource, namespace, name):
            return
        scope = f" in namespace {namespace!r}" if namespace else ""
        raise Forbidden(
            f"user {credential.user!r} cannot {verb} {resource}{scope}"
        )

    def _subject_matches(self, subject, credential):
        if subject.kind == "User":
            return subject.name == credential.user
        if subject.kind == "Group":
            return subject.name in credential.groups
        return False

    def _allowed_by_cluster_bindings(self, credential, verb, resource, name):
        roles = {role.name: role
                 for role in self._reader.read_all("clusterroles")}
        for binding in self._reader.read_all("clusterrolebindings"):
            if not any(self._subject_matches(s, credential)
                       for s in binding.subjects):
                continue
            role = roles.get(binding.role_ref.name)
            if role and any(rule.allows(verb, resource, name)
                            for rule in role.rules):
                return True
        return False

    def _allowed_by_namespace_bindings(self, credential, verb, resource,
                                       namespace, name):
        roles = {}
        for role in self._reader.read_all("roles"):
            if role.namespace == namespace:
                roles[role.name] = role
        cluster_roles = {role.name: role
                         for role in self._reader.read_all("clusterroles")}
        for binding in self._reader.read_all("rolebindings"):
            if binding.namespace != namespace:
                continue
            if not any(self._subject_matches(s, credential)
                       for s in binding.subjects):
                continue
            if binding.role_ref.kind == "ClusterRole":
                role = cluster_roles.get(binding.role_ref.name)
            else:
                role = roles.get(binding.role_ref.name)
            if role and any(rule.allows(verb, resource, name)
                            for rule in role.rules):
                return True
        return False


class AllowAllAuthorizer:
    """Used by tenant control planes where the tenant is cluster-admin."""

    def authorize(self, credential, verb, resource, namespace=None,
                  name=None):
        return
