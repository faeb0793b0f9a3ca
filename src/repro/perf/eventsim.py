"""Event-driven micro-simulation for validating the analytic models.

The main simulator treats the victim aggregate analytically (the
calibration in :mod:`repro.perf.costmodel`); this module provides the
ground truth it is validated against: a small packet-by-packet
simulation that drives a **real**
:class:`~repro.ovs.microflow.MicroflowCache` with interleaved victim
and attacker arrivals and measures the victim's actual hit rate.

The arrival interleave runs on the same heap-based
:class:`~repro.util.eventloop.EventLoop` core the fleet simulator uses
(this module's hand-rolled two-way merge predates it): each traffic
class is one self-rescheduling arrival event, with the class index as
the event *phase* so simultaneous arrivals keep the historical
victim-before-attacker tie-break.  That also makes the harness k-ary
for free — any number of traffic classes compose without touching the
merge logic.

It is deliberately small-scale (tens of thousands of events) — enough
to check the capacity-competition model's saturation behaviour without
burning minutes of CPU.  The test suite asserts agreement within a
generous tolerance; the point is the *regime* (cache big enough ⇒ high
locality; flows ≫ entries ⇒ locality ≈ entries/flows), not the third
decimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.fields import OVS_FIELDS, FieldSpace
from repro.flow.key import FlowKey
from repro.flow.match import FlowMatch
from repro.flow.actions import Allow
from repro.ovs.megaflow import MegaflowEntry
from repro.ovs.microflow import MicroflowCache
from repro.util.eventloop import EventLoop
from repro.util.rng import DeterministicRng


@dataclass
class EmcSimResult:
    """Measured hit rates from one event-driven run."""

    victim_lookups: int
    victim_hits: int
    attacker_lookups: int
    attacker_hits: int

    @property
    def victim_hit_rate(self) -> float:
        return self.victim_hits / self.victim_lookups if self.victim_lookups else 0.0

    @property
    def attacker_hit_rate(self) -> float:
        return (
            self.attacker_hits / self.attacker_lookups if self.attacker_lookups else 0.0
        )


def simulate_emc_competition(
    emc_entries: int,
    emc_ways: int,
    victim_flows: int,
    attacker_flows: int,
    victim_pps: float,
    attacker_pps: float,
    duration: float = 5.0,
    seed: int = 11,
    space: FieldSpace = OVS_FIELDS,
) -> EmcSimResult:
    """Interleave victim and attacker packet arrivals through a real
    microflow cache and measure per-class hit rates.

    Victim packets pick one of ``victim_flows`` keys uniformly (a
    round-robin-ish server mix); attacker packets cycle the
    ``attacker_flows`` covert keys in order, exactly like the covert
    stream does.
    """
    rng = DeterministicRng(seed)
    cache = MicroflowCache(entries=emc_entries, ways=emc_ways, rng=rng.fork("emc"))
    entry = MegaflowEntry(match=FlowMatch.wildcard(space), action=Allow())

    victim_keys = [
        FlowKey(space, {"ip_src": 0x0A000000 + i, "tp_src": 33000 + (i % 1000)})
        for i in range(victim_flows)
    ]
    attacker_keys = [
        FlowKey(space, {"ip_src": 0x2C000000 + i, "tp_dst": i & 0xFFFF})
        for i in range(attacker_flows)
    ]

    result = EmcSimResult(0, 0, 0, 0)
    # interleave the two Poisson-ish processes through the shared
    # event-loop core: each class is one self-rescheduling arrival
    # event; the class index doubles as the event *phase*, so a
    # simultaneous victim/attacker arrival keeps the historical
    # victim-first tie-break.  Arrivals scheduled past ``duration``
    # simply never run (``run(until=duration)``)
    loop = EventLoop()
    attacker_state = {"cursor": 0}

    def victim_arrival() -> None:
        now = loop.now
        key = rng.choice(victim_keys)
        result.victim_lookups += 1
        if cache.lookup(key, now) is not None:
            result.victim_hits += 1
        else:
            cache.insert(key, entry, now)
        loop.schedule(now + rng.expovariate(victim_pps), victim_arrival, phase=0)

    def attacker_arrival() -> None:
        now = loop.now
        key = attacker_keys[attacker_state["cursor"] % len(attacker_keys)]
        attacker_state["cursor"] += 1
        result.attacker_lookups += 1
        if cache.lookup(key, now) is not None:
            result.attacker_hits += 1
        else:
            cache.insert(key, entry, now)
        loop.schedule(now + rng.expovariate(attacker_pps), attacker_arrival,
                      phase=1)

    if victim_pps > 0:
        loop.schedule(rng.expovariate(victim_pps), victim_arrival, phase=0)
    if attacker_pps > 0:
        loop.schedule(rng.expovariate(attacker_pps), attacker_arrival, phase=1)
    loop.run(until=duration)
    return result


def analytic_victim_hit_rate(
    emc_entries: int,
    victim_flows: int,
    attacker_flows: int,
    max_locality: float = 0.98,
) -> float:
    """The capacity-competition model used by the main simulator.

    Deliberately simple — slots are shared in proportion to *flow
    counts* — which is conservative when the attacker's packet rate is
    much lower than the victim's (the attacker then holds fewer slots
    than its flow count suggests).  :func:`analytic_victim_hit_rate_weighted`
    refines this; the event-driven tests bound both.
    """
    active = victim_flows + attacker_flows
    if active <= 0:
        return max_locality
    return max_locality * min(1.0, emc_entries / active)


def analytic_victim_hit_rate_weighted(
    emc_entries: int,
    victim_flows: int,
    attacker_flows: int,
    victim_pps: float,
    attacker_pps: float,
    max_locality: float = 0.98,
    iterations: int = 64,
) -> float:
    """Rate-weighted refinement: cache slots are held in proportion to
    *insertion* rates, and a class's insertion rate is its packet rate
    times its miss rate.  Solved by damped fixed-point iteration::

        I_v = victim_pps · (1 − h)
        R_v = entries · I_v / (I_v + attacker_insertions)
        h   = max_locality · min(1, R_v / victim_flows)

    The attacker's covert stream cycles distinct keys, so effectively
    every attacker packet is an insertion.
    """
    if victim_flows <= 0 or victim_pps <= 0:
        return max_locality
    if attacker_flows <= 0:
        attacker_pps = 0.0
    h = 0.5
    for _ in range(iterations):
        victim_insertions = victim_pps * (1.0 - h)
        total = victim_insertions + attacker_pps
        resident = emc_entries * (victim_insertions / total) if total > 0 else emc_entries
        target = max_locality * min(1.0, resident / victim_flows)
        h = 0.5 * h + 0.5 * target  # damping avoids oscillation
    return h
