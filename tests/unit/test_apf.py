"""APF admission control unit tests (DESIGN.md §15).

Covers the tentpole's contract surface directly against
:class:`~repro.apiserver.APFLimiter`: classification, exempt bypass,
seat accounting with borrowing, queue-full and bounded-wait shedding
(both as structured 429 + Retry-After), and the pressure scaling of the
Retry-After hint.  Admissions, sheds and queue waits are read where the
limiter counts them: the ``apf_*`` families of the telemetry registry.
"""

import pytest

from repro.apiserver import APFLimiter, FlowClassifier
from repro.apiserver.auth import ADMIN, Credential
from repro.apiserver.errors import TooManyRequests
from repro.config import ApfConfig, ApfTier
from repro.simkernel import Simulation

pytestmark = pytest.mark.apf


def small_config(**overrides):
    """A tiny seat pool so tests saturate it with a handful of requests."""
    defaults = dict(
        enabled=True, total_seats=4,
        tiers=(
            ApfTier(name="system", shares=0, exempt=True),
            ApfTier(name="platinum", shares=50, queue_wait=2.0),
            ApfTier(name="standard", shares=35),
            ApfTier(name="free", shares=15, queue_wait=0.5,
                    queue_limit=2, queues=2, hand_size=1,
                    borrow_cap_factor=1.0),
        ))
    defaults.update(overrides)
    return ApfConfig(**defaults)


def make_limiter(sim, **overrides):
    limiter = APFLimiter(sim, small_config(**overrides))
    limiter.classifier.assign("tenant-gold", "platinum")
    limiter.classifier.assign("tenant-iron", "free")
    return limiter


def series(sim, family, **labels):
    """One child of an ``apf_*`` registry family."""
    return sim.telemetry.registry.get(family).labels(**labels)


def acquire_sync(sim, limiter, credential):
    """Drive one acquire to completion; returns the ticket."""
    box = {}

    def proc():
        box["ticket"] = yield from limiter.acquire(credential)

    process = sim.spawn(proc(), name="acquire")
    sim.run(until=process)
    return box["ticket"]


class TestClassification:
    def test_explicit_user_assignment_wins(self):
        classifier = FlowClassifier()
        classifier.assign("tenant-gold", "platinum")
        assert classifier.tier_of(Credential("tenant-gold")) == "platinum"

    def test_system_masters_and_system_prefix_are_system(self):
        classifier = FlowClassifier()
        assert classifier.tier_of(ADMIN) == "system"
        assert classifier.tier_of(
            Credential("system:kube-controller-manager")) == "system"

    def test_unknown_user_gets_default_tier(self):
        classifier = FlowClassifier(default_tier="standard")
        assert classifier.tier_of(Credential("tenant-new")) == "standard"

    def test_flow_is_the_user_identity(self):
        classifier = FlowClassifier()
        assert classifier.flow_of(Credential("tenant-a")) == "tenant-a"


class TestSeats:
    def test_exempt_bypasses_seat_pool(self):
        sim = Simulation(seed=1)
        limiter = make_limiter(sim)
        tickets = [acquire_sync(sim, limiter, ADMIN) for _ in range(10)]
        # All ten admitted instantly despite total_seats == 4.
        assert limiter.exempt_in_use == 10
        assert limiter.total_in_use == 0
        for ticket in tickets:
            limiter.release(ticket)
        assert limiter.exempt_in_use == 0

    def test_admit_within_share_is_immediate(self):
        sim = Simulation(seed=1)
        limiter = make_limiter(sim)
        ticket = acquire_sync(sim, limiter, Credential("tenant-gold"))
        assert ticket.state == "admitted"
        assert limiter.levels["platinum"].in_use == 1
        limiter.release(ticket)
        assert limiter.levels["platinum"].in_use == 0
        assert limiter.total_in_use == 0

    def test_borrowing_up_to_cap(self):
        sim = Simulation(seed=1)
        limiter = make_limiter(sim)
        level = limiter.levels["platinum"]
        # platinum: 50/100 shares of 4 seats -> 2 nominal, cap 4.
        assert level.seats == 2
        assert level.borrow_cap == 4
        tickets = [acquire_sync(sim, limiter, Credential("tenant-gold"))
                   for _ in range(4)]
        assert level.in_use - level.seats == 2    # both borrowed
        # At the cap, a fifth request queues instead of borrowing more.
        sim.spawn(limiter.acquire(Credential("tenant-gold")), name="fifth")
        sim.run(until=sim.now + 0.01)
        assert (level.in_use, level.waiting) == (4, 1)
        for ticket in tickets:
            limiter.release(ticket)

    def test_free_tier_cannot_borrow(self):
        sim = Simulation(seed=1)
        limiter = make_limiter(sim)
        level = limiter.levels["free"]
        # free: borrow_cap_factor 1.0 -> cap == nominal share.
        assert level.borrow_cap == level.seats
        held = [acquire_sync(sim, limiter, Credential("tenant-iron"))
                for _ in range(level.seats)]
        assert level.in_use == level.seats
        assert not limiter._can_admit(level)
        for ticket in held:
            limiter.release(ticket)

    def test_release_of_unadmitted_ticket_raises(self):
        sim = Simulation(seed=1)
        limiter = make_limiter(sim)
        ticket = acquire_sync(sim, limiter, Credential("tenant-gold"))
        limiter.release(ticket)
        with pytest.raises(RuntimeError):
            limiter.release(ticket)


class TestQueueingAndShedding:
    def saturate(self, sim, limiter, credential, count):
        return [acquire_sync(sim, limiter, credential)
                for _ in range(count)]

    def test_waiter_dispatched_on_release(self):
        sim = Simulation(seed=1)
        limiter = make_limiter(sim)
        held = self.saturate(sim, limiter, Credential("tenant-gold"), 4)
        admitted = []

        def waiter():
            ticket = yield from limiter.acquire(Credential("tenant-gold"))
            admitted.append(ticket)

        sim.spawn(waiter(), name="queued")
        sim.run(until=sim.now + 0.1)
        assert not admitted          # pool saturated, still queued
        limiter.release(held.pop())
        # The release seats the waiter at once: the seat never idles.
        assert limiter.levels["platinum"].in_use == 4
        sim.run(until=sim.now + 0.01)
        assert len(admitted) == 1    # freed seat handed to the waiter
        wait = series(sim, "apf_queue_wait_seconds", level="platinum")
        assert wait.count == 1
        assert wait.sum == pytest.approx(0.1)
        assert series(sim, "apf_admitted_total",
                      level="platinum").value == 5

    def test_queue_full_sheds_with_retry_after(self):
        sim = Simulation(seed=1)
        limiter = make_limiter(sim)
        free = limiter.levels["free"]
        held = self.saturate(sim, limiter, Credential("tenant-iron"),
                             free.seats)
        # hand_size=1, queue_limit=2: the flow's single queue takes two
        # waiters, the third arrival overflows immediately.
        for _ in range(2):
            sim.spawn(limiter.acquire(Credential("tenant-iron")),
                      name="queued")
        sim.run(until=sim.now + 0.01)
        shed = {}

        def third():
            try:
                yield from limiter.acquire(Credential("tenant-iron"))
            except TooManyRequests as exc:
                shed["exc"] = exc

        sim.spawn(third(), name="shed")
        sim.run(until=sim.now + 0.01)
        assert "exc" in shed
        assert shed["exc"].retry_after > 0
        assert series(sim, "apf_rejected_total", level="free",
                      reason="queue-full").value == 1
        for ticket in held:
            limiter.release(ticket)

    def test_bounded_wait_times_out_with_retry_after(self):
        sim = Simulation(seed=1)
        limiter = make_limiter(sim)
        free = limiter.levels["free"]
        held = self.saturate(sim, limiter, Credential("tenant-iron"),
                             free.seats)
        shed = {}

        def queued():
            try:
                yield from limiter.acquire(Credential("tenant-iron"))
            except TooManyRequests as exc:
                shed["exc"] = exc
                shed["at"] = sim.now

        sim.spawn(queued(), name="queued")
        # Never release: the 0.5s bounded wait (plus <=25% jitter) fires.
        sim.run(until=sim.now + 1.0)
        assert "exc" in shed
        assert 0.5 <= shed["at"] <= 0.5 * 1.25 + 1e-9
        assert series(sim, "apf_rejected_total", level="free",
                      reason="timeout").value == 1
        assert free.waiting == 0
        for ticket in held:
            limiter.release(ticket)

    def test_retry_after_scales_with_queue_pressure(self):
        sim = Simulation(seed=1)
        limiter = make_limiter(sim)
        free = limiter.levels["free"]
        empty_hint = limiter._retry_after(free)
        free.waiting = 4          # full: 2 queues x limit 2
        full_hint = limiter._retry_after(free)
        free.waiting = 0
        assert full_hint > empty_hint
        assert full_hint <= limiter.config.retry_after_max

    def test_interrupted_waiter_does_not_leak_seat_or_crash(self):
        sim = Simulation(seed=1)
        limiter = make_limiter(sim)
        held = self.saturate(sim, limiter, Credential("tenant-gold"), 4)

        def doomed():
            # A bare failed process would crash the sim, so swallow the
            # interrupt the way a real client teardown does.
            from repro.simkernel.errors import Interrupt
            try:
                yield from limiter.acquire(Credential("tenant-gold"))
            except Interrupt:
                pass

        process = sim.spawn(doomed(), name="doomed")
        sim.run(until=sim.now + 0.05)
        process.interrupt("client gave up")
        sim.run(until=sim.now + 0.01)
        # Release everything: the dead waiter must be skipped, not seated.
        for ticket in held:
            limiter.release(ticket)
        assert limiter.total_in_use == 0
        # The expiry watchdog for the dead waiter must not crash the sim
        # (failing an event nobody listens to would be an undefused
        # failure) — run past the platinum 2s bound to prove it.
        sim.run(until=sim.now + 3.0)
        assert limiter.levels["platinum"].waiting == 0


class TestSnapshot:
    def test_snapshot_counts_dispatch_and_shed(self):
        """The telemetry snapshot counts each admission once per level,
        exempt ones included, and no shed that did not happen."""
        sim = Simulation(seed=1)
        limiter = make_limiter(sim)
        for credential in (Credential("tenant-gold"), ADMIN):
            limiter.release(acquire_sync(sim, limiter, credential))
        families = {family["name"]: family["series"]
                    for family in sim.telemetry.snapshot()["families"]}
        admitted = {row["labels"]["level"]: row["value"]
                    for row in families["apf_admitted_total"]}
        assert admitted == {"platinum": 1, "system": 1}
        assert families["apf_rejected_total"] == []
        assert limiter.levels["platinum"].in_use == 0

    def test_default_config_is_disabled(self):
        from repro.config import DEFAULT_CONFIG

        assert DEFAULT_CONFIG.apf.enabled is False
        assert DEFAULT_CONFIG.swapper.enabled is False
