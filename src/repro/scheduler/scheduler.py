"""The default scheduler: single queue, sequential scheduling.

The paper's measured scalability bottleneck: "The default Kubernetes
scheduler has a single queue, and it schedules Pod sequentially.
Therefore, we have seen the scheduler throughput peaked at a few hundred
Pods per second" (§IV-A).  The per-pod service time in
:class:`~repro.config.SchedulerLatency` is calibrated to exactly that
regime, and the sequential loop means backlog builds under burst load —
which produces the Super-Sched phase delays of Fig. 8 / Table I.
"""

from repro.apiserver.errors import ApiError, Conflict, NotFound
from repro.clientgo import WorkQueue
from repro.simkernel.errors import Interrupt
from repro.telemetry import telemetry_of

from .plugins import ClusterSnapshot, default_filters, default_scorers


class SchedulingFailure(Exception):
    """No node survived the filter plugins."""

    def __init__(self, pod_key, reasons):
        super().__init__(f"pod {pod_key}: 0/{len(reasons)} nodes available")
        self.reasons = reasons


class Scheduler:
    """Watches unscheduled pods and binds them to nodes, one at a time."""

    def __init__(self, sim, client, informer_factory, config,
                 filters=None, scorers=None, name="default-scheduler",
                 recorder=None):
        from repro.clientgo.events import EventRecorder

        self.sim = sim
        self.client = client
        self.config = config
        self.name = name
        self.recorder = recorder or EventRecorder(sim, client, name)
        self.filters = filters if filters is not None else default_filters()
        self.scorers = scorers if scorers is not None else default_scorers()
        self.queue = WorkQueue(sim, name=f"{name}-queue")
        self._pod_informer = informer_factory.informer("pods")
        self._node_informer = informer_factory.informer("nodes")
        # Maintained by the informer handlers below, never rebuilt.
        self.snapshot = ClusterSnapshot()
        self._keep_scores = not any(plugin.depends_on_pod
                                    for plugin in self.scorers)
        self.scheduled_count = 0
        self.failed_count = 0
        self.schedule_latency_total = 0.0
        # Exact work counters: cycles that reached node selection and
        # filter plugin calls made in them (binds are scheduled_count).
        self.cycles = 0
        self.filter_evaluations = 0
        self._stopped = False
        self._workers = []
        telemetry = telemetry_of(sim)
        self._telemetry = telemetry
        self._binds_counter = telemetry.counter(
            "scheduler_binds_total", "successful pod bindings",
            labels=("scheduler",)).labels(scheduler=name)
        self._bind_failures_counter = telemetry.counter(
            "scheduler_bind_failures_total",
            "bind writes rejected by the apiserver",
            labels=("scheduler",)).labels(scheduler=name)
        self._unschedulable_counter = telemetry.counter(
            "scheduler_unschedulable_total",
            "scheduling attempts with no feasible node",
            labels=("scheduler",)).labels(scheduler=name)
        self._latency_hist = telemetry.histogram(
            "scheduler_e2e_seconds",
            "queue add -> successful bind latency",
            labels=("scheduler",)).labels(scheduler=name)

        self._pod_informer.add_handlers(
            on_add=self._on_pod_add,
            on_update=self._on_pod_update,
            on_delete=self._on_pod_delete,
        )
        self._node_informer.add_handlers(
            on_add=self._on_node_add,
            on_update=self._on_node_update,
            on_delete=self._on_node_delete,
        )

    # ------------------------------------------------------------------
    # Informer handlers
    # ------------------------------------------------------------------

    def _on_pod_add(self, pod):
        if pod.spec.node_name:
            self.snapshot.assign(pod)
        elif not pod.is_terminal:
            self.queue.add(pod.key)

    def _on_pod_update(self, old, pod):
        self._on_pod_add(pod)

    def _on_pod_delete(self, pod):
        self.snapshot.unassign(pod.key)

    def _on_node_add(self, node):
        info = self.snapshot.set_node(node)
        info.filters = [plugin for plugin in self.filters
                        if plugin.may_reject_node(node)]

    def _on_node_update(self, old, node):
        self._on_node_add(node)

    def _on_node_delete(self, node):
        self.snapshot.remove_node(node.metadata.name)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def start(self):
        worker = self.sim.spawn(self._run(), name=f"{self.name}-loop")
        self._workers.append(worker)
        return worker

    def stop(self):
        self._stopped = True
        self.queue.shutdown()
        for worker in self._workers:
            worker.interrupt("scheduler stopped")

    def _run(self):
        while not self._stopped:
            try:
                pod_key, enqueued_at = yield self.queue.get()
            except Interrupt:
                return
            except Exception:
                return
            try:
                yield from self._schedule_one(pod_key, enqueued_at)
            except Interrupt:
                return
            finally:
                self.queue.done(pod_key)

    def _schedule_one(self, pod_key, enqueued_at):
        # The cached object is a shared snapshot; the two paths that
        # change a field derive their own object from it.
        pod = self._pod_informer.cache.get(pod_key)
        if pod is None or pod.spec.node_name or pod.is_terminal:
            return
        cfg = self.config.scheduler
        jitter = self.sim.rng.uniform(-cfg.service_jitter,
                                      cfg.service_jitter)
        yield self.sim.timeout(max(0.0, cfg.service_time + jitter))

        chosen, reasons = self._select_node(pod)
        if chosen is None:
            self.failed_count += 1
            self._unschedulable_counter.inc()
            yield from self._record_failure(pod, reasons)
            return
        # Assume the pod onto the node and bind asynchronously, like the
        # real scheduler: the sequential loop moves on immediately.
        self.snapshot.assign(pod.replace(
            spec=pod.spec.replace(node_name=chosen.metadata.name)))
        self.sim.spawn(
            self._bind_async(pod, chosen.metadata.name, pod_key,
                             enqueued_at),
            name=f"bind-{pod_key}")

    def _bind_async(self, pod, node_name, pod_key, enqueued_at):
        with self._telemetry.span("scheduler.bind", node=node_name):
            try:
                yield from self.client.bind_pod(pod.name, pod.namespace,
                                                node_name)
            except (Conflict, NotFound):
                self._bind_failures_counter.inc()
                self.snapshot.unassign(pod_key)
                return
            except ApiError:
                self._bind_failures_counter.inc()
                self.snapshot.unassign(pod_key)
                self.queue.add(pod_key)
                return
        self.scheduled_count += 1
        self._binds_counter.inc()
        self.schedule_latency_total += self.sim.now - enqueued_at
        self._latency_hist.observe(self.sim.now - enqueued_at)

    def _select_node(self, pod):
        """(best node or None, {node name: first rejection}).

        Nodes are visited in snapshot order and filters in plugin order;
        a filter is skipped only where it declared it cannot reject.
        """
        snapshot = self.snapshot
        filters = [plugin for plugin in self.filters
                   if plugin.may_reject_pod(pod)]
        evaluations = 0
        feasible = []
        reasons = {}
        for info in snapshot.infos():
            node = info.node
            for plugin in info.filters:
                if plugin not in filters:
                    continue
                evaluations += 1
                rejection = plugin.filter(pod, node, snapshot)
                if rejection is not None:
                    reasons[node.metadata.name] = rejection
                    break
            else:
                feasible.append(info)
        self.cycles += 1
        self.filter_evaluations += evaluations
        best = None
        best_score = None
        for info in feasible:
            score = info.score
            if score is None:
                score = sum(plugin.score(pod, info.node, snapshot)
                            for plugin in self.scorers)
                if self._keep_scores:
                    info.score = score
            if best_score is None or score > best_score:
                best = info.node
                best_score = score
        return best, reasons

    def _record_failure(self, pod, reasons):
        """Mark the pod unschedulable and retry later."""
        summary = "; ".join(sorted(set(reasons.values()))) or "no nodes"
        self.recorder.event(pod, "FailedScheduling", summary,
                            event_type="Warning")
        status = pod.status.copy()
        status.set_condition(
            "PodScheduled", "False", reason="Unschedulable",
            message=summary,
            now=self.sim.now)
        try:
            yield from self.client.update_status(pod.replace(status=status))
        except ApiError:
            pass

        def retry(key=pod.key):
            yield self.sim.timeout(1.0)
            self.queue.add(key)

        self.sim.spawn(retry(), name="sched-retry")
