"""Load generation for the paper's stress experiments (§IV) and the
scenario layer (DESIGN.md §14).

The generator creates large numbers of Pods "simultaneously in all tenant
control planes" (VC runs) or directly in the super cluster with one
submission thread per tenant (baseline runs).  The aggregate submission
rate is fixed regardless of tenant count, matching the paper's
observation that latency depends on the number of Pods, not tenants.

Beyond the paper's fixed patterns, :class:`TimedActions` executes a
pre-compiled open-loop action plan — ``(time, op, index)`` tuples from a
``repro.scenarios`` traffic shape — so declarative scenarios (diurnal
curves, flash crowds, rolling upgrades) all drive the same generator.

Determinism: every draw the generator makes (pacing jitter, think-time
jitter) comes from the per-simulation RNG (``sim.rng``) and every
timestamp from the simulation clock (``sim.now``) — never from the
``random`` module's global state or the wall clock — so two same-seed
runs submit identical workloads at identical times.
"""

from repro.apiserver.errors import ApiError
from repro.objects import make_pod


class TenantLoadPattern:
    """How one tenant submits its Pods.

    ``mode="paced"``  — sequential creates at ``rate`` Pods/s;
    ``mode="burst"``  — all creates issued concurrently (greedy tenant);
    ``mode="sequential"`` — create, wait for server ack, create next
    (the paper's "regular user" in the fairness experiment).

    ``jitter`` perturbs each paced interval by uniform ``[-jitter,
    +jitter]`` seconds and ``think`` inserts a fixed pause after each
    sequential ack; jitter draws come from the per-sim RNG so patterns
    stay seed-deterministic.
    """

    def __init__(self, count, mode="paced", rate=10.0, namespace="default",
                 name_prefix="load", jitter=0.0, think=0.0):
        self.count = count
        self.mode = mode
        self.rate = rate
        self.namespace = namespace
        self.name_prefix = name_prefix
        self.jitter = jitter
        self.think = think


class TimedActions:
    """A pre-compiled open-loop plan: ``(time, op, index)`` actions.

    ``op`` is ``"create"`` (pod ``{prefix}-{index:05d}``) or
    ``"replace"`` (delete the index's current revision, create the
    next — the rolling-upgrade primitive).  ``concurrent=True`` fires
    each action without waiting for the previous ack (flash-crowd /
    burst semantics); otherwise actions are issued in order, each
    waiting for the server.  Action times are absolute simulation
    offsets from the moment the plan starts running.
    """

    def __init__(self, actions, namespace="default", name_prefix="load",
                 concurrent=False, labels=None):
        self.actions = list(actions)
        self.namespace = namespace
        self.name_prefix = name_prefix
        self.concurrent = concurrent
        self.labels = labels


class LoadGenerator:
    """Drives pod creation against tenant control planes or the super."""

    def __init__(self, sim):
        self.sim = sim
        self.submitted = 0
        self.deleted = 0
        self.replaced = 0
        self.errors = 0
        self.first_submit = None
        self.last_submit = None

    # ------------------------------------------------------------------
    # Submission drivers
    # ------------------------------------------------------------------

    def run_tenant_load(self, client, pattern):
        """Coroutine: submit one tenant's Pods per its pattern."""
        if pattern.mode == "burst":
            done = []
            for index in range(pattern.count):
                self.sim.spawn(
                    self._create_one(client, pattern, index, done),
                    name=f"burst-{pattern.name_prefix}-{index}")
            while len(done) < pattern.count:
                yield self.sim.timeout(0.05)
            return
        interval = 1.0 / pattern.rate if pattern.rate else 0.0
        for index in range(pattern.count):
            yield from self._create_one(client, pattern, index, None)
            if pattern.mode == "paced" and interval:
                # Per-sim RNG: pacing jitter replays per seed.
                delay = interval + (
                    self.sim.rng.uniform(-pattern.jitter, pattern.jitter)
                    if pattern.jitter else 0.0)
                if delay > 0:
                    yield self.sim.timeout(delay)
            elif pattern.mode == "sequential" and pattern.think:
                yield self.sim.timeout(pattern.think)

    def run_timed(self, client, plan):
        """Coroutine: execute a :class:`TimedActions` plan.

        Waits are computed against absolute action times (``time -
        sim.now``), never by accumulating deltas, so long plans don't
        drift.  Late actions (an earlier ack outlasted the gap) fire
        immediately in plan order.
        """
        start = self.sim.now
        revisions = {}
        done = []
        spawned = 0
        for when, op, index in plan.actions:
            delay = (start + when) - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            if plan.concurrent:
                self.sim.spawn(
                    self._run_action(client, plan, op, index, revisions,
                                     done),
                    name=f"timed-{plan.name_prefix}-{op}-{index}")
                spawned += 1
            else:
                yield from self._run_action(client, plan, op, index,
                                            revisions, None)
        while len(done) < spawned:
            yield self.sim.timeout(0.05)

    def run_all(self, jobs):
        """Coroutine: run (client, plan) jobs concurrently; wait for all.

        Each plan may be a :class:`TenantLoadPattern` or a
        :class:`TimedActions`.
        """
        processes = []
        for i, (client, plan) in enumerate(jobs):
            if isinstance(plan, TimedActions):
                coroutine = self.run_timed(client, plan)
            else:
                coroutine = self.run_tenant_load(client, plan)
            processes.append(self.sim.spawn(coroutine, name=f"loadgen-{i}"))
        yield self.sim.all_of(processes)

    # ------------------------------------------------------------------
    # Single-action helpers
    # ------------------------------------------------------------------

    def _pod_name(self, plan, index, revision):
        base = f"{plan.name_prefix}-{index:05d}"
        return base if revision == 0 else f"{base}-r{revision}"

    def _run_action(self, client, plan, op, index, revisions, done):
        try:
            if op == "create":
                yield from self._submit(client, plan,
                                        self._pod_name(plan, index, 0))
            elif op == "replace":
                revision = revisions.get(index, 0)
                old_name = self._pod_name(plan, index, revision)
                revisions[index] = revision + 1
                try:
                    yield from client.delete("pods", old_name,
                                             namespace=plan.namespace)
                    self.deleted += 1
                except ApiError:
                    # The old revision never landed (chaos window); the
                    # upgrade still rolls the new one out.
                    self.errors += 1
                yield from self._submit(
                    client, plan, self._pod_name(plan, index, revision + 1))
                self.replaced += 1
            else:
                raise ValueError(f"unknown plan op: {op!r}")
        finally:
            if done is not None:
                done.append(index)

    def _submit(self, client, plan, name):
        pod = make_pod(name, namespace=plan.namespace,
                       labels=dict(getattr(plan, "labels", None) or
                                   {"app": plan.name_prefix}))
        try:
            yield from client.create(pod)
            self.submitted += 1
            if self.first_submit is None:
                self.first_submit = self.sim.now
            self.last_submit = self.sim.now
        except ApiError:
            self.errors += 1

    def _create_one(self, client, pattern, index, done):
        try:
            yield from self._submit(client, pattern,
                                    f"{pattern.name_prefix}-{index:05d}")
        finally:
            if done is not None:
                done.append(index)


def even_split(total, parts):
    """Split ``total`` into ``parts`` near-equal integers summing to total."""
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]
