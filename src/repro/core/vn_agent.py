"""vn-agent: per-node proxy for tenant kubelet API requests (§III-B(3)).

A kubelet registers with exactly one apiserver (the super cluster's), so
tenant apiservers cannot reach it for ``logs``/``exec``.  Each vNode in a
tenant control plane therefore advertises the vn-agent's port; the agent

1. identifies the requesting tenant by comparing the hash of its TLS
   client certificate with the hash stored in each VC object,
2. translates the tenant namespace into the prefixed super-cluster
   namespace, and
3. forwards the request to the local kubelet.
"""

from repro.apiserver.errors import NotFound, Unauthorized

from .crd import super_namespace

# The port every vNode advertises as its kubelet endpoint.
VN_AGENT_PORT = 10550


class VnAgent:
    """One node's kubelet-API proxy."""

    proxy_latency = 0.002

    def __init__(self, sim, node_name, kubelet, tenant_operator):
        self.sim = sim
        self.node_name = node_name
        self.kubelet = kubelet
        self.tenant_operator = tenant_operator
        self.requests_proxied = 0
        self.requests_rejected = 0

    # ------------------------------------------------------------------
    # Tenant identification
    # ------------------------------------------------------------------

    def _identify_tenant(self, cert_hash):
        vc = self.tenant_operator.find_vc_by_cert_hash(cert_hash)
        if vc is None:
            self.requests_rejected += 1
            raise Unauthorized(
                "vn-agent: client certificate matches no VirtualCluster")
        return vc

    def _super_namespace(self, vc, tenant_namespace):
        return super_namespace(vc, tenant_namespace)

    # ------------------------------------------------------------------
    # Proxied kubelet APIs
    # ------------------------------------------------------------------

    def logs(self, credential, namespace, pod_name, container=None,
             tail=None):
        """Coroutine: proxy a ``kubectl logs`` request."""
        vc = self._identify_tenant(credential.cert_hash)
        sns = self._super_namespace(vc, namespace)
        yield self.sim.timeout(self.proxy_latency)
        try:
            lines = self.kubelet.get_logs(sns, pod_name,
                                          container_name=container,
                                          tail=tail)
        except NotFound:
            self.requests_rejected += 1
            raise
        self.requests_proxied += 1
        return lines

    def exec(self, credential, namespace, pod_name, command,
             container=None):
        """Coroutine: proxy a ``kubectl exec`` request."""
        vc = self._identify_tenant(credential.cert_hash)
        sns = self._super_namespace(vc, namespace)
        yield self.sim.timeout(self.proxy_latency)
        result = yield from self.kubelet.exec_in_pod(
            sns, pod_name, command, container_name=container)
        self.requests_proxied += 1
        return result
