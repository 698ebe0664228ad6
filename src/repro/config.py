"""Calibrated service-time model for every simulated component.

All constants are in simulated seconds.  They were tuned (see
EXPERIMENTS.md) so that the baseline super cluster exhibits the paper's
measured behaviour — a sequential scheduler peaking at a few hundred Pods
per second, ~18 s to create 10,000 Pods directly — and the VirtualCluster
pipeline lands near the paper's ~23 s with the reported phase breakdown.

:class:`LatencyConfig` is also the only place a deployment is shaped:
worker counts, fair queuing, syncer replicas, the WAL, APF and the
swapper are fields here, never constructor switches.  Tests and
benchmarks derive their own config with :meth:`LatencyConfig.with_overrides`
when they need a different regime, so nothing here is process-global
state.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field, replace


@dataclass
class ApiServerLatency:
    """Request-path costs for one apiserver."""

    request_overhead: float = 0.0002   # authn/authz/admission CPU
    etcd_read: float = 0.0003
    etcd_write: float = 0.0010
    list_base: float = 0.002
    list_per_item: float = 0.00005
    watch_delivery: float = 0.0001     # store event -> watcher visible
    # Multi-op transaction: one etcd_write round trip amortized over the
    # batch, plus a small per-op apply cost inside the store.
    etcd_txn_per_op: float = 0.00012


@dataclass
class SchedulerLatency:
    """The super cluster's sequential default scheduler."""

    # ~1.9 ms/Pod -> peaks at ~525 Pods/s, the paper's "few hundred".
    service_time: float = 0.0018
    service_jitter: float = 0.0003     # uniform +/- jitter
    binding_write: float = 0.0008


@dataclass
class SyncerLatency:
    """The resource syncer (paper §III-C).

    The enqueue/dequeue critical sections are serialized (guarded by one
    lock per queue) — the paper attributes the ~21% throughput drop to
    exactly this contention.
    """

    informer_handler: float = 0.00008  # event handler -> queue add
    dws_dequeue_cs: float = 0.0017     # serialized: caps downward ~590/s
    dws_process: float = 0.0012       # parallel per-worker reconcile work
    uws_dequeue_cs: float = 0.0021     # serialized: caps upward ~475/s
    uws_process: float = 0.0010
    scan_per_object: float = 0.00015   # periodic scanner per object
    per_item_cpu_overhead: float = 0.0025  # serde/bookkeeping CPU per item
    vnode_heartbeat_write: float = 0.0006
    dws_workers: int = 20
    uws_workers: int = 100
    scan_interval: float = 60.0
    # Per-tenant lanes with weighted round-robin dispatch (paper
    # §III-C); False puts every tenant of a shard into one lane, which
    # WRR serves as a FIFO (Fig. 11b).
    fair_queuing: bool = True
    # Per-tenant circuit breaker (fail fast when a tenant control plane
    # is unreachable instead of blocking shared workers).
    circuit_breaker: bool = True
    breaker_failure_threshold: int = 3
    breaker_open_duration: float = 2.0     # initial open period before probing
    breaker_max_open_duration: float = 30.0
    # Worker watchdog: respawn dead DWS/UWS workers with crash-loop backoff.
    watchdog_base_backoff: float = 0.25
    watchdog_max_backoff: float = 15.0
    watchdog_stable_after: float = 30.0    # uptime that resets the backoff
    # --- Hot-path optimizations (DESIGN.md §9) ---------------------------
    # Scans and lookups always go through the cache's secondary indexes;
    # each candidate an index returns costs this much simulated time.
    scan_filter_per_object: float = 0.00002
    # Sharded dispatch: each fair queue routes a tenant, by
    # ``shard_hash(tenant) % N``, to one of N shards, each with its own
    # workers and dequeue lock.  1 == the paper's serialized syncer (the
    # configuration every paper-fidelity benchmark uses).
    dispatch_shards: int = 1
    # Downward write batching: reconciler writes to the super apiserver
    # are coalesced into multi-op transactions.  max=1 disables batching.
    downward_batch_max: int = 1
    downward_batch_linger: float = 0.001   # wait to fill a batch (seconds)
    # --- HA / crash recovery (DESIGN.md §10) -----------------------------
    # Syncer replicas behind one lease; 1 == the paper's single syncer.
    replicas: int = 1
    # Standbys keep warm informer caches; False is the cold-takeover
    # ablation (a takeover pays the full relist).
    warm_standby: bool = True
    # Leader lease: the active replica renews every lease_renew_interval;
    # standbys retry at lease_retry_interval and take over once the lease
    # lapses.  MTTR ~= lease_duration + takeover scan, so these defaults
    # keep failover well under one scan_interval.
    lease_duration: float = 6.0
    lease_renew_interval: float = 2.0
    lease_retry_interval: float = 0.5
    lease_jitter: float = 0.2
    # Tenant control-plane durability: etcd snapshot cadence used by the
    # tenant operator for crash/restore (DESIGN.md §10.3).
    snapshot_interval: float = 15.0


@dataclass
class StorageDurability:
    """WAL + replication for control-plane stores (DESIGN.md §13).

    Defaults keep the seed's pure in-memory single store (no WAL, one
    replica), so the base RNG sequence and all paper-fidelity runs are
    byte-identical unless durability is opted into.
    """

    # Attach a write-ahead log to every control-plane store.  Implied by
    # replicas > 1 (replication streams WAL records).
    wal_enabled: bool = False
    # Store group size; 1 == the seed's single in-memory store.
    replicas: int = 1
    # Leader -> follower apply latency per record.
    replication_delay: float = 0.002
    # Store-group leader lease: snappier than the syncer's 6 s lease so
    # storage MTTR stays in the low seconds.
    lease_duration: float = 3.0
    lease_renew_interval: float = 1.0
    lease_retry_interval: float = 0.25
    lease_jitter: float = 0.2

    @property
    def replicated(self):
        return self.replicas > 1

    @property
    def durable(self):
        return self.wal_enabled or self.replicas > 1


@dataclass
class ApfTier:
    """One priority level of the APF admission layer (DESIGN.md §15).

    ``shares`` sets the level's slice of the apiserver's total seat pool;
    ``exempt`` levels (system traffic) bypass seats and queues entirely,
    like the upstream ``exempt`` priority level.
    """

    name: str
    shares: int
    queues: int = 8            # shuffle-shard queues inside the level
    hand_size: int = 2         # queues each flow may use
    queue_limit: int = 40      # per-queue depth before immediate 429
    queue_wait: float = 1.0    # max seconds queued before timeout 429
    exempt: bool = False
    # A level may borrow idle seats from the shared pool up to
    # ``borrow_cap_factor * nominal`` while total occupancy allows it.
    borrow_cap_factor: float = 2.0


@dataclass
class ApfConfig:
    """API Priority & Fairness admission for the super apiserver
    (DESIGN.md §15).

    The apiserver's only admission mechanism.  Disabled by default:
    without it no request waits for a seat.
    """

    enabled: bool = False
    # Concurrency seats split across non-exempt levels by shares.
    total_seats: int = 64
    default_tier: str = "standard"
    # Base of the server-computed Retry-After hint; scaled by queue
    # pressure at rejection time.  Clients add their own jitter.
    retry_after_base: float = 0.25
    retry_after_max: float = 5.0
    # Deterministic shuffle-shard dealing is keyed by this seed.
    shuffle_seed: int = 0
    tiers: tuple = field(default_factory=lambda: (
        ApfTier("system", shares=0, exempt=True),
        ApfTier("platinum", shares=50, queue_wait=2.0),
        ApfTier("standard", shares=35),
        ApfTier("free", shares=15, queue_wait=0.5, queue_limit=20,
                borrow_cap_factor=1.0),
    ))


@dataclass
class SwapperConfig:
    """Scale-to-zero autoscaler for tenant control planes (DESIGN.md §15).

    Disabled by default (paper-faithful: the swapper stays an opt-in
    ablation unless a run enables it).
    """

    enabled: bool = False
    idle_threshold: float = 60.0   # user-traffic silence before swap-out
    check_interval: float = 10.0
    swapout_latency: float = 0.4   # page-out window; a request cancels it
    cold_wake_latency: float = 0.8  # page-in from swap
    warm_wake_latency: float = 0.15  # page-in from the warm pool
    warm_pool: int = 8             # recently-swapped planes kept warm
    wake_concurrency: int = 32     # concurrent page-ins (I/O); 0: no cap
    residual_fraction: float = 0.15


@dataclass
class KubeletLatency:
    """Real-node kubelet and runtimes."""

    sync_loop_reaction: float = 0.005
    runc_container_start: float = 0.8
    kata_sandbox_boot: float = 2.2     # guest VM boot
    kata_container_start: float = 0.9
    status_update: float = 0.002
    virtual_kubelet_ack: float = 0.7   # provider ack + status write-back


@dataclass
class NetworkLatency:
    """Data-plane costs for the enhanced kubeproxy experiment (§IV-E)."""

    grpc_round_trip: float = 0.004
    guest_iptable_update_per_rule: float = 0.0055
    host_iptable_update: float = 0.0008
    rule_scan_per_rule: float = 0.0001
    init_container_poll: float = 0.05


@dataclass
class MemoryModel:
    """Bytes attributed to cached objects (Fig. 10 bottom)."""

    # One tenant Pod occupies ~2 informer-cache copies totalling ~40 KB.
    object_size_factor: float = 21.0   # bytes per serialized character
    queue_entry_bytes: int = 96
    informer_overhead_bytes: int = 512


@dataclass
class LatencyConfig:
    """Bundle of all component latency models."""

    apiserver: ApiServerLatency = field(default_factory=ApiServerLatency)
    scheduler: SchedulerLatency = field(default_factory=SchedulerLatency)
    syncer: SyncerLatency = field(default_factory=SyncerLatency)
    kubelet: KubeletLatency = field(default_factory=KubeletLatency)
    network: NetworkLatency = field(default_factory=NetworkLatency)
    memory: MemoryModel = field(default_factory=MemoryModel)
    storage: StorageDurability = field(default_factory=StorageDurability)
    apf: ApfConfig = field(default_factory=ApfConfig)
    swapper: SwapperConfig = field(default_factory=SwapperConfig)

    def with_overrides(self, **sections):
        """Copy with some sections replaced.

        A value is a whole section or a mapping of that section's fields,
        e.g. ``with_overrides(syncer={"scan_interval": 5.0})``.  An
        unknown section or field raises ``TypeError`` naming it.
        """
        for name, value in sections.items():
            if isinstance(value, Mapping) and name in self.__dataclass_fields__:
                sections[name] = replace(getattr(self, name), **value)
        return replace(self, **sections)


DEFAULT_CONFIG = LatencyConfig()
