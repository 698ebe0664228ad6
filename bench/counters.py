"""Exact per-layer counts, read from the program's public read-outs:
``sim.kernel_stats()``, ``sim.telemetry.snapshot()``, ``syncer.stats()``
and ``control_plane.etcd_stats()``.

``read(envs)`` returns one flat ``{name: number}`` dict summed over the
environments; ``delta(after, before)`` subtracts a baseline taken at
the end of set-up so the counts describe the timed phase only.
"""

# High-water marks: not additive, so never subtracted.
PEAKS = ("simkernel.peak_heap", "core.syncer.sim_peak_mem_mb")


def _families(snapshot):
    return {family["name"]: family for family in snapshot["families"]}


def _total(family, **labels):
    """Sum a counter family's series, optionally filtered by labels."""
    if family is None:
        return 0
    return sum(series.get("value", 0)
               for series in family["series"]
               if all(series["labels"].get(key) == value
                      for key, value in labels.items()))


def _histogram(family):
    """(count, sum) over every series of a histogram family."""
    if family is None:
        return 0, 0.0
    return (sum(series["count"] for series in family["series"]),
            sum(series["sum"] for series in family["series"]))


def _read_one(env):
    kernel = env.sim.kernel_stats()
    snapshot = env.sim.telemetry.snapshot()
    families = _families(snapshot)
    syncer = env.syncer.stats()
    planes = [env.super_cluster,
              *env.tenant_operator.control_planes.values()]
    stores = [plane.etcd_stats() for plane in planes]

    def total(name, **labels):
        return _total(families.get(name), **labels)

    api_spans = [aggregate for name, aggregate in snapshot["spans"].items()
                 if name.startswith("apiserver.")]
    fair_wait = _histogram(families.get("fairqueue_wait_seconds"))
    bind_wait = _histogram(families.get("scheduler_e2e_seconds"))
    return {
        "simkernel.dispatched": kernel["dispatched"],
        "simkernel.wheel_scheduled": kernel["wheel_scheduled"],
        "simkernel.orphans_skipped": kernel["orphans_skipped"],
        "simkernel.peak_heap": kernel["peak_heap"],
        "storage.writes": total("etcd_ops_total", op="write"),
        "storage.reads": total("etcd_ops_total", op="read"),
        "storage.txn_ops": sum(store["txn_ops"] for store in stores),
        "storage.wal_appends": total("wal_appends_total"),
        "apiserver.requests": total("apiserver_requests_total"),
        "apiserver.errors": sum(span["errors"] for span in api_spans),
        "apiserver.sim_busy_s": sum(span["total_seconds"]
                                    for span in api_spans),
        "clientgo.informer_events": total("informer_events_total"),
        "clientgo.relists": total("reflector_lists_total"),
        "clientgo.watch_failures": total("reflector_watch_failures_total"),
        "clientgo.queue_adds": (total("fairqueue_adds_total")
                                + total("workqueue_adds_total")),
        "clientgo.queue_deduped": (total("fairqueue_deduped_total")
                                   + total("workqueue_deduped_total")),
        "clientgo.fairqueue_wait_sim_s": fair_wait[1],
        "core.syncer.items_down": total("syncer_items_total",
                                        direction="downward"),
        "core.syncer.items_up": total("syncer_items_total",
                                      direction="upward"),
        "core.syncer.lock_contentions": (syncer["dws_lock_contentions"]
                                         + syncer["uws_lock_contentions"]),
        "core.syncer.batches_flushed":
            syncer["downward_batching"]["batches_flushed"],
        "core.syncer.vnode_heartbeats": total("vnode_heartbeats_total"),
        "core.syncer.sim_cpu_s": syncer["cpu_seconds"],
        "core.syncer.sim_peak_mem_mb": syncer["peak_memory_bytes"] / 2**20,
        "scheduler.binds": total("scheduler_binds_total"),
        "scheduler.bind_failures": total("scheduler_bind_failures_total"),
        "scheduler.e2e_count": bind_wait[0],
        "scheduler.e2e_sum_sim_s": bind_wait[1],
        "virtualkubelet.pods_started": total("kubelet_pods_started_total"),
        "telemetry.spans_finished": total("spans_total"),
    }


def read(envs):
    out = {}
    for env in envs:
        for name, value in _read_one(env).items():
            if name in PEAKS:
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
    return out


def delta(after, before):
    return {name: value if name in PEAKS else value - before.get(name, 0)
            for name, value in after.items()}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def derive(counts, pods, extra):
    """The per-layer count metrics of BENCHMARK.json from raw counts."""
    out = {name: value for name, value in counts.items()
           if name not in ("clientgo.queue_deduped", "scheduler.e2e_count",
                           "scheduler.e2e_sum_sim_s")}
    items = counts["core.syncer.items_down"] + counts["core.syncer.items_up"]
    out["apiserver.requests_per_pod"] = _ratio(counts["apiserver.requests"],
                                               pods)
    out["clientgo.queue_dedup_ratio"] = _ratio(
        counts["clientgo.queue_deduped"], counts["clientgo.queue_adds"])
    # Store writes on every control plane per item the syncer reconciled
    # (0 where the syncer has nothing to do).
    out["core.syncer.writes_per_item"] = _ratio(counts["storage.writes"],
                                                items)
    out["scheduler.sim_e2e_s_mean"] = _ratio(
        counts["scheduler.e2e_sum_sim_s"], counts["scheduler.e2e_count"])
    out["core.tenant_operator.tenants_provisioned"] = extra.get("tenants", 0)
    out["simkernel.idle_events_per_tenant_sim_s"] = _ratio(
        extra.get("idle_events", 0), extra.get("idle_tenant_sim_s", 0))
    return out
