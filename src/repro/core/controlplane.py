"""Control-plane assembly: apiserver + etcd + controllers (+ scheduler).

``TenantControlPlane`` deliberately has **no scheduler** — Pod scheduling
happens in the super cluster (paper §III-B(1)).  The super cluster gets
the full stack including the sequential default scheduler.
"""

from repro.apiserver import ADMIN, APIServer, Credential
from repro.clientgo import InformerFactory, Kubeconfig
from repro.controllers import ControllerManager
from repro.scheduler import Scheduler


class ControlPlane:
    """A running control plane within the simulation."""

    def __init__(self, sim, name, config):
        self.sim = sim
        self.name = name
        self.config = config
        # A replicated store's group (None for a single store): the
        # apiserver holds its leader's store and the group re-points it.
        store, self.store_group = _build_store(sim, name, config)
        self.api = APIServer(sim, name, config=config, store=store)
        if self.store_group is not None:
            self.store_group.on_failover = self.api.serve_from
        self.admin = ADMIN
        self.api.authenticator.register(self.admin)
        self._clients = {}
        self.controller_manager = None
        self.scheduler = None
        self.started = False

    def register_user(self, user, groups=()):
        """Issue a credential (synthetic client certificate) for a user."""
        credential = Credential(user, groups=groups)
        self.api.authenticator.register(credential)
        return credential

    def client(self, credential=None, user_agent=None, qps=200.0,
               burst=400, cpu_account=None):
        from repro.clientgo import Client

        credential = credential or self.admin
        return Client(self.sim, self.api, credential,
                      user_agent=user_agent or f"{self.name}-client",
                      qps=qps, burst=burst, cpu_account=cpu_account)

    def kubeconfig(self, credential=None):
        return Kubeconfig(self.api, credential or self.admin,
                          cluster_name=self.name)

    def etcd_stats(self):
        if self.store_group is not None:
            return self.store_group.stats()
        return self.api.store.stats()


class TenantControlPlane(ControlPlane):
    """A tenant's dedicated control plane: full API, no scheduler.

    The tenant is cluster-admin *of this control plane* and can freely
    create namespaces, CRDs, cluster roles, and webhooks without touching
    any other tenant — the paper's management-convenience argument.
    """

    def __init__(self, sim, name, config, owner_vc=None):
        super().__init__(sim, name, config)
        self.owner_vc = owner_vc
        self.tenant_credential = self.register_user(
            f"tenant-{name}", groups=("tenant-admins",))

    def start(self):
        """Start the tenant's built-in controllers (coroutine-free)."""
        if self.started:
            return
        client = self.client(user_agent=f"{self.name}-kcm")
        informers = InformerFactory(self.sim, client)
        self.controller_manager = ControllerManager(self.sim, client,
                                                    informers)
        self.controller_manager.start()
        self.started = True

    def stop(self):
        if self.controller_manager is not None:
            self.controller_manager.stop()
        self.started = False

    def tenant_kubeconfig(self):
        return self.kubeconfig(self.tenant_credential)


class SuperCluster(ControlPlane):
    """The super cluster: owns nodes, runs the scheduler."""

    def __init__(self, sim, config, name="super"):
        super().__init__(sim, name, config)
        self.api.registry.register(_import_vc_type())
        self.informer_factory = None
        self.node_agents = []
        # The apiserver's one admission mechanism (DESIGN.md §15), when
        # opted in.  Only the shared super apiserver gets it: a tenant
        # apiserver serves one tenant, so it has nobody to be fair to.
        self.apf = None
        if config.apf.enabled:
            from repro.apiserver.apf import APFLimiter

            self.apf = APFLimiter(sim, config.apf, name=f"{name}-apf")
            self.api.apf = self.apf

    def start(self):
        if self.started:
            return
        kcm_client = self.client(user_agent="super-kcm", qps=2000,
                                 burst=4000)
        self.informer_factory = InformerFactory(self.sim, kcm_client)
        self.controller_manager = ControllerManager(
            self.sim, kcm_client, self.informer_factory)
        sched_client = self.client(user_agent="super-scheduler", qps=5000,
                                   burst=10000)
        self.scheduler = Scheduler(self.sim, sched_client,
                                   self.informer_factory, self.config)
        self.controller_manager.start()
        self.informer_factory.start_all()
        self.scheduler.start()
        self.started = True

    def stop(self):
        if self.scheduler is not None:
            self.scheduler.stop()
        if self.controller_manager is not None:
            self.controller_manager.stop()
        for agent in self.node_agents:
            agent.stop()
        self.started = False


def _build_store(sim, name, config):
    """This control plane's ``(store, group)`` per ``config.storage``.

    The store is None in the default configuration, so the apiserver
    builds the seed's plain in-memory :class:`EtcdStore` and
    default-mode runs stay byte-identical.  With durability opted in,
    the store gets a write-ahead log; with ``replicas > 1`` it is the
    leader's store of a replicated group with leader election and WAL
    streaming (DESIGN.md §13), and the group comes back too.
    """
    storage = config.storage
    if not storage.durable:
        return None, None
    from repro.storage import EtcdStore, StoreGroup, WriteAheadLog

    if storage.replicated:
        group = StoreGroup(sim, f"{name}-etcd", config)
        return group.store, group
    return EtcdStore(sim, name=f"{name}-etcd",
                     wal=WriteAheadLog(sim, f"{name}-etcd")), None


def _import_vc_type():
    from .crd import VirtualCluster

    return VirtualCluster
