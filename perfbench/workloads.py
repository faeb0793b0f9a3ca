"""The benchmark's workloads and the output checks on each run.

Every workload is a closed loop with one client: the benchmark process
hands the next burst or tick to the program as soon as the previous one
returns.  The seed permutes the covert key order the benchmark hands to
the program (``SyntheticSource`` for serve, ``DataplaneSimulator.
covert_keys`` for campaigns); :data:`DEFAULT_SEED` keeps the program's
own order, which is what the digest pins in ``pins.json`` were taken at.

``repro`` is imported only inside the run classes, so the runner can
read this table without the program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from typing import Callable

from perfbench.calib import calibrate

#: the seed whose outputs ``pins.json`` pins; it keeps the key order
DEFAULT_SEED = 0

#: simulated seconds of one serve run: 600 bursts of ~390 keys
SERVE_SECONDS = 60.0

#: slow-path upcalls of the campaigns' victim flows: its one megaflow,
#: installed before the policy lands and again after the injection
#: flushes the caches
VICTIM_UPCALLS = 2


def permuted(keys, seed: int) -> list:
    """The covert keys in the order ``seed`` picks; the default seed
    keeps the program's order."""
    keys = list(keys)
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(keys)
    return keys


def digest(document) -> str:
    """sha256 of the canonical JSON form (floats in ``repr``, exact)."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TimedSource:
    """Wraps a serve source: times the host-speed probe before each
    burst, then times the burst from when the serve loop draws it to
    when the loop comes back for the next one, and tells ``on_op``
    which burst is starting."""

    def __init__(self, source) -> None:
        self.source = source
        self.op_s: list[float] = []
        self.cal_s: list[float] = []
        self.on_op: Callable[[int], None] | None = None

    def describe(self) -> dict:
        return self.source.describe()

    def batches(self):
        clock = time.perf_counter
        for index, burst in enumerate(self.source.batches()):
            self.cal_s.append(calibrate())
            if self.on_op is not None:
                self.on_op(index)
            start = clock()
            yield burst
            self.op_s.append(clock() - start)


class ServeRun:
    """``build_service`` over the ``k8s-serve`` preset, fed the permuted
    covert keys; set-up ends with the worker fork when there are workers."""

    kind = "serve"

    def __init__(self, seed: int, shards: int, workers: int,
                 duration: float = SERVE_SECONDS) -> None:
        from repro.runtime.service import SyntheticSource, build_service
        from repro.scenario import SCENARIOS

        spec = SCENARIOS.get("k8s-serve").evolve(shards=shards)
        service = build_service(spec, workers=workers, duration=duration)
        plain = service.source
        self.keys = permuted(plain.burst.keys, seed)
        self.source = TimedSource(SyntheticSource(
            self.keys, rate_pps=plain.rate_pps, duration=plain.duration,
            tick=plain.tick,
        ))
        service.source = self.source
        if workers:
            service.datapath.start()
        self.service = service
        self.planned = int(round(plain.duration / plain.tick))
        self.due = int(round(plain.duration * plain.rate_pps))
        self.report = None
        self.op_s: list[float] = []
        self.cal_s: list[float] = []
        self.loop_s = 0.0
        self.sim_s = 0.0

    @property
    def completed(self) -> int:
        return self.service.batches

    def execute(self, on_op=None) -> None:
        self.source.on_op = on_op
        self.report = self.service.run()
        self.op_s, self.cal_s = self.source.op_s, self.source.cal_s
        self.loop_s = sum(self.op_s)
        self.sim_s = self.report.final["state"]["time"]

    def digest(self) -> str:
        return digest(self.report.deterministic_view())

    def invariants(self) -> list[str]:
        state = self.report.final["state"]
        problems = []
        if state["total_mask_count"] != 512:
            problems.append(f"{state['total_mask_count']} masks, not 512")
        if self.report.packets != self.due or state["stats"]["packets"] != self.due:
            problems.append(f"{self.report.packets} packets, {self.due} due")
        if state["stats"]["upcalls"] != len(self.keys):
            problems.append(f"{state['stats']['upcalls']} upcalls for "
                            f"{len(self.keys)} covert keys")
        return problems

    def datapath(self):
        return self.service.datapath

    def extra(self) -> dict:
        return {"packets": self.report.packets,
                "pkt_per_s": self.report.packets_per_second}


class CampaignRun:
    """A campaign preset driven as ``start()`` plus one ``step()`` per
    tick, with the covert keys permuted before the first tick."""

    kind = "campaign"

    def __init__(self, seed: int, preset: str, backend: str,
                 masks: int, duration: float | None = None) -> None:
        from repro.scenario import SCENARIOS
        from repro.scenario.session import Session

        spec = SCENARIOS.get(preset).evolve(backend=backend)
        if duration is not None:
            spec = spec.evolve(duration=duration)
        simulator = Session(spec).build_campaign().build_simulator()
        simulator.covert_keys = permuted(simulator.covert_keys, seed)
        simulator.start()
        self.sim = simulator
        self.masks = masks
        self.planned = int(round(spec.duration / simulator.dt))
        self.op_s: list[float] = []
        self.cal_s: list[float] = []
        self.loop_s = 0.0
        self.sim_s = 0.0

    @property
    def completed(self) -> int:
        return len(self.sim.series)

    def execute(self, on_op=None) -> None:
        sim = self.sim
        op_s, cal_s = self.op_s, self.cal_s
        clock = time.perf_counter
        while sim.t < sim.duration:
            cal_s.append(calibrate())
            if on_op is not None:
                on_op(len(op_s))
            tick = clock()
            sim.step()
            op_s.append(clock() - tick)
        self.loop_s = sum(op_s)
        self.sim_s = sim.t

    def digest(self) -> str:
        from repro.obs.export import mask_census

        return digest({
            "series": list(self.sim.series),
            "stats": self.sim.switch.stats.snapshot(),
            "masks": list(mask_census(self.sim.switch)),
        })

    def invariants(self) -> list[str]:
        from repro.obs.export import mask_census
        from repro.ovs.pmd import shard_views

        sim = self.sim
        problems = []
        total = mask_census(sim.switch)[1]
        if total != self.masks:
            problems.append(f"{total} masks, not {self.masks}")
        rows = list(sim.series)
        sent = sum(row["attacker_pps"] * sim.dt for row in rows)
        due = sum(sim.attacker.packets_due(row["t"] - sim.dt, row["t"])
                  for row in rows)
        if sent != due:
            problems.append(f"{sent} covert packets sent, {due} due")
        upcalls = sum(view.slow_path.upcalls for view in shard_views(sim.switch))
        if upcalls != len(sim.covert_keys) + VICTIM_UPCALLS:
            problems.append(f"{upcalls} upcalls for {len(sim.covert_keys)} "
                            f"covert keys + {VICTIM_UPCALLS} victim")
        return problems

    def datapath(self):
        return self.sim.switch

    def extra(self) -> dict:
        return {}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: "serve" (an operation is a burst) or "campaign" (a tick)
    kind: str
    why: str
    #: the layers this workload leaves out, so a change there should
    #: not move its numbers
    bypasses: str
    #: the highest tail percentile ``stats.tail_percentile`` allows for
    #: the operations of ``MIN_REPS`` repetitions (10 samples beyond);
    #: printed, not gated
    tail: float
    build: Callable[..., object]
    #: the variant whose digest this one must equal at the same seed
    reference: str | None = None

    @property
    def reason(self) -> str:
        """The one line ``BENCHMARK.json`` records for this workload."""
        return f"{self.why}; bypasses {self.bypasses}"


def _serve(shards: int, workers: int):
    def build(seed: int, duration: float = SERVE_SECONDS):
        return ServeRun(seed, shards=shards, workers=workers,
                        duration=duration)
    return build


def _campaign(preset: str, backend: str, masks: int):
    def build(seed: int, duration: float | None = None):
        return CampaignRun(seed, preset, backend, masks, duration)
    return build


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="serve-deepscan",
        kind="serve",
        why="read path: 512-key covert feed on 4 serial shards, EMC off, "
            "so the scalar TSS scan dominates",
        bypasses="megaflow install, simulator, vec, parallel",
        tail=99.0,
        build=_serve(shards=4, workers=0),
    ),
    Workload(
        name="campaign-calico",
        kind="campaign",
        why="write path: 8192 megaflow installs into the TSS, then "
            "revalidator sweeps over 8193 masks",
        bypasses="TSS scan (model replay), vec, parallel",
        tail=90.0,
        build=_campaign("calico", "ovs", masks=8193),
    ),
    Workload(
        name="campaign-deepscan-vec",
        kind="campaign",
        why="the only workload on repro.vec: 512 masks, EMC off, every "
            "covert packet through the columnar scan",
        bypasses="scalar TSS scan, parallel",
        tail=90.0,
        build=_campaign("k8s-deepscan", "ovs-vec", masks=513),
        reference="campaign-deepscan-scalar",
    ),
    Workload(
        name="serve-parallel2",
        kind="serve",
        why="the only workload through runtime.parallel: 2 shards on 2 "
            "workers, a mailbox round-trip per burst",
        bypasses="simulator, megaflow install, vec",
        tail=99.0,
        build=_serve(shards=2, workers=2),
        reference="serve-serial2",
    ),
)}

#: the reference variants the checks compare against (never timed)
REFERENCES: dict[str, Callable[..., object]] = {
    "campaign-deepscan-scalar": _campaign("k8s-deepscan", "ovs", masks=513),
    "serve-serial2": _serve(shards=2, workers=0),
}


#: how to build each variant, workloads and references alike, by name
BUILDS: dict[str, Callable[..., object]] = {
    **{name: workload.build for name, workload in WORKLOADS.items()},
    **REFERENCES,
}
