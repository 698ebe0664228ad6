"""Scale-to-zero tenant control planes (DESIGN.md §15; paper §V #2).

"How to reduce the tenant control plane resources, especially for idle
tenants, is challenging. ... one possible solution is to allow memory
overcommitment in the nodes that run the tenant control planes and swap
the idle tenant control plane memory out."

PR 8 promotes that ablation to a production autoscaler:

- **State machine** — each tracked apiserver carries a
  :class:`SwapState` cycling ``resident -> swapping-out -> swapped ->
  waking -> resident``.  A tenant request landing mid-page-out aborts
  the swap; concurrent wakers coalesce onto one page-in (double-wake
  pays the latency once); a waker killed mid-page-in rolls the state
  back so the next request restarts it.
- **Warm pool** — the most recently swapped planes stay compressed in
  RAM (``warm_pool`` slots, tier-preferential retention: free-tier
  planes are evicted first), so their wake costs
  ``warm_wake_latency`` instead of the cold page-in.
- **Tier-aware wake priority** — page-ins are bounded by a
  :class:`WakeGate` (modelling page-in I/O bandwidth); when a flash
  crowd queues wakes, platinum planes jump the line.
- **SLO accounting** — every wake records (tier, elapsed incl. queue
  wait); :meth:`IdleSwapper.wake_p99` backs the benchmark's SLO gate.

Idleness is judged on *tenant* traffic (``api.user_request_count``):
syncer heartbeats and controller scans are served from the residual
resident set and neither keep a plane awake nor page it back in.
"""

import heapq

from repro.apiserver.apf import TIER_RANK
from repro.config import DEFAULT_CONFIG
from repro.simkernel.errors import Interrupt
from repro.simkernel.events import Event
from repro.telemetry import telemetry_of

# Modelled resident set of an idle-but-awake tenant control plane
# (apiserver + etcd + controller manager), before object storage.
BASE_CONTROL_PLANE_BYTES = 220 * 1024 * 1024
PER_OBJECT_BYTES = 18 * 1024

RESIDENT = "resident"
SWAPPING_OUT = "swapping-out"
SWAPPED = "swapped"
WAKING = "waking"


class WakeGate:
    """Priority semaphore bounding concurrent page-ins.

    Waiters are served in (tier rank, arrival) order — platinum wakes
    first when a flash crowd saturates page-in bandwidth.  Dead waiters
    (interrupted while queued) are skipped on release, like the
    workqueue's live-waiter scan.
    """

    def __init__(self, sim, capacity):
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters = []
        self._seq = 0

    def acquire(self, rank):
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._seq += 1
            heapq.heappush(self._waiters, (rank, self._seq, event))
        return event

    def release(self):
        while self._waiters:
            _rank, _seq, event = heapq.heappop(self._waiters)
            if event.callbacks:
                event.succeed()
                return
        self._in_use -= 1


class SwapState:
    """Swap lifecycle attached to one tenant apiserver."""

    def __init__(self, sim, wake_latency=0.8, swapper=None, name="",
                 tier="standard"):
        self.sim = sim
        self.wake_latency = wake_latency   # cold page-in (no swapper)
        self.swapper = swapper
        self.name = name
        self.tier = tier
        self.state = RESIDENT
        self.swap_outs = 0
        self.swap_ins = 0
        self.swapout_aborts = 0
        self.wake_time_total = 0.0
        # Bumped whenever a page-out is started or aborted, so a stale
        # page-out finisher can detect it lost the race.
        self._swap_epoch = 0
        self._wake_waiters = []

    @property
    def swapped(self):
        return self.state == SWAPPED

    def ensure_awake(self):
        """Coroutine: called on the request path; pages the control
        plane back in (or joins/aborts an in-flight transition)."""
        while True:
            if self.state == RESIDENT:
                return
            if self.state == SWAPPING_OUT:
                # The request caught the page-out mid-flight: abort it
                # (the plane never left residency, so this is free).
                self._swap_epoch += 1
                self.state = RESIDENT
                self.swapout_aborts += 1
                return
            if self.state == SWAPPED:
                yield from self._wake()
                return
            # WAKING: join the in-flight wake, then re-check — if the
            # waker died mid-page-in the state fell back to SWAPPED and
            # this waiter restarts the wake itself.
            event = Event(self.sim)
            self._wake_waiters.append(event)
            yield event

    def _wake(self):
        self.state = WAKING
        started = self.sim.now
        swapper = self.swapper
        gate = swapper.wake_gate if swapper is not None else None
        try:
            if gate is not None:
                yield gate.acquire(TIER_RANK.get(self.tier, 2))
            if swapper is not None:
                latency, kind = swapper.wake_latency_for(self.name)
            else:
                latency, kind = self.wake_latency, "cold"
            try:
                yield self.sim.timeout(latency)
            finally:
                if gate is not None:
                    gate.release()
        except BaseException:
            # Killed mid-wake: roll back so a joined waiter (or the
            # next request) restarts the page-in.
            self.state = SWAPPED
            self._notify_waiters()
            raise
        self.state = RESIDENT
        self.swap_ins += 1
        elapsed = self.sim.now - started
        self.wake_time_total += elapsed
        if swapper is not None:
            swapper.record_wake(self, elapsed, kind)
        self._notify_waiters()

    def _notify_waiters(self):
        waiters = self._wake_waiters
        self._wake_waiters = []
        for event in waiters:
            if event.callbacks:
                event.succeed()


def control_plane_memory(control_plane, residual_fraction=0.15):
    """Modelled resident bytes of one tenant control plane."""
    objects = len(control_plane.api.store)
    resident = BASE_CONTROL_PLANE_BYTES + objects * PER_OBJECT_BYTES
    state = getattr(control_plane.api, "swap_state", None)
    if state is not None and state.swapped:
        return int(resident * residual_fraction)
    return resident


class IdleSwapper:
    """Watches tenant control planes and swaps out the idle ones.

    A control plane is idle when its apiserver served no *tenant*
    requests for ``config.idle_threshold`` simulated seconds.  Swapping
    is transparent to tenants except for the wake-up latency on their
    next request — the performance/cost trade-off the paper describes.
    Every setting comes from one :class:`~repro.config.SwapperConfig`.
    """

    def __init__(self, sim, config=None):
        self.sim = sim
        self.config = config or DEFAULT_CONFIG.swapper
        self.wake_gate = (WakeGate(sim, self.config.wake_concurrency)
                          if self.config.wake_concurrency else None)
        self._tracked = {}
        self._warm = {}      # name -> {"rank": tier rank, "seq": admit seq}
        self._warm_seq = 0
        self._process = None
        self.swap_out_count = 0
        self.wake_samples = []   # (tier, kind, elapsed incl. gate wait)
        telemetry = telemetry_of(sim)
        self._wakeups_total = telemetry.counter(
            "swapper_wakeups_total", "control-plane page-ins",
            labels=("tier", "kind"))
        self._swapouts_total = telemetry.counter(
            "swapper_swapouts_total", "control-plane page-outs",
            labels=("tier",))
        self._wake_seconds = telemetry.histogram(
            "swapper_wake_seconds", "wake latency incl. queue wait",
            labels=("tier",))
        self._resident_bytes = telemetry.gauge(
            "swapper_resident_bytes",
            "resident memory of tracked control planes")
        self._resident_bytes.set_function(self.total_resident_bytes)

    # ------------------------------------------------------------------
    # Tracking
    # ------------------------------------------------------------------

    def track(self, control_plane, tier="standard"):
        """Attach swap support to a tenant control plane."""
        api = control_plane.api
        if getattr(api, "swap_state", None) is None:
            api.swap_state = SwapState(
                self.sim, wake_latency=self.config.cold_wake_latency,
                swapper=self, name=control_plane.name, tier=tier)
        else:
            api.swap_state.swapper = self
            api.swap_state.tier = tier
        self._tracked[control_plane.name] = {
            "control_plane": control_plane,
            "tier": tier,
            "last_count": api.user_request_count,
            "last_activity": self.sim.now,
        }

    def untrack(self, control_plane):
        self._tracked.pop(control_plane.name, None)
        self._warm.pop(control_plane.name, None)

    def start(self):
        if self._process is None:
            self._process = self.sim.spawn(self._loop(), name="idle-swapper")
        return self._process

    def stop(self):
        if self._process is not None:
            self._process.interrupt("swapper stopped")
            self._process = None

    def _loop(self):
        while True:
            try:
                yield self.sim.timeout(self.config.check_interval)
            except Interrupt:
                return
            now = self.sim.now
            for entry in self._tracked.values():
                api = entry["control_plane"].api
                if api.user_request_count != entry["last_count"]:
                    entry["last_count"] = api.user_request_count
                    entry["last_activity"] = now
                    continue
                idle_for = now - entry["last_activity"]
                if (idle_for >= self.config.idle_threshold
                        and api.swap_state.state == RESIDENT):
                    self._begin_swapout(entry, api.swap_state)

    # ------------------------------------------------------------------
    # Page-out
    # ------------------------------------------------------------------

    def _begin_swapout(self, entry, state):
        state._swap_epoch += 1
        if self.config.swapout_latency <= 0:
            self._finish_swapout(entry, state)
            return
        state.state = SWAPPING_OUT
        self.sim.spawn(self._swapout_window(entry, state, state._swap_epoch),
                       name=f"swapout-{entry['control_plane'].name}")

    def _swapout_window(self, entry, state, epoch):
        yield self.sim.timeout(self.config.swapout_latency)
        if state.state == SWAPPING_OUT and state._swap_epoch == epoch:
            self._finish_swapout(entry, state)

    def _finish_swapout(self, entry, state):
        state.state = SWAPPED
        state.swap_outs += 1
        self.swap_out_count += 1
        self._swapouts_total.labels(tier=entry["tier"]).inc()
        self._warm_admit(entry["control_plane"].name, entry["tier"])

    def _warm_admit(self, name, tier):
        warm_pool = self.config.warm_pool
        if warm_pool <= 0:
            return
        self._warm_seq += 1
        self._warm[name] = {"rank": TIER_RANK.get(tier, 2),
                            "seq": self._warm_seq}
        if len(self._warm) > warm_pool:
            # Evict the least-retainable entry: lowest tier first,
            # oldest within a tier (higher rank == lower tier).
            victim = max(self._warm.items(),
                         key=lambda kv: (kv[1]["rank"], -kv[1]["seq"]))
            del self._warm[victim[0]]

    # ------------------------------------------------------------------
    # Page-in (called from SwapState._wake)
    # ------------------------------------------------------------------

    def wake_latency_for(self, name):
        """(latency, kind) of one page-in; consumes the warm slot."""
        if self._warm.pop(name, None) is not None:
            return self.config.warm_wake_latency, "warm"
        return self.config.cold_wake_latency, "cold"

    def record_wake(self, state, elapsed, kind):
        self._wakeups_total.labels(tier=state.tier, kind=kind).inc()
        self._wake_seconds.labels(tier=state.tier).observe(elapsed)
        self.wake_samples.append((state.tier, kind, elapsed))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def total_resident_bytes(self):
        return sum(
            control_plane_memory(entry["control_plane"],
                                 self.config.residual_fraction)
            for entry in self._tracked.values()
        )

    def swapped_count(self):
        return sum(
            1 for entry in self._tracked.values()
            if entry["control_plane"].api.swap_state.swapped
        )

    def wake_p99(self, tier=None):
        """p99 wake latency (including gate queueing), optionally per tier."""
        samples = sorted(elapsed for t, _kind, elapsed in self.wake_samples
                         if tier is None or t == tier)
        if not samples:
            return 0.0
        index = min(len(samples) - 1, int(0.99 * (len(samples) - 1) + 0.5))
        return samples[index]
