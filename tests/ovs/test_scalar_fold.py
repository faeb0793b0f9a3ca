"""Differential tests for the scalar batch pipeline's folded paths.

``OvsSwitch.process_batch`` drains a burst as one run when the EMC
cannot store, and in aggregate-only mode folds the megaflow-hit
bookkeeping per chunk (per distinct key when the scan returns
``BurstResults``).  Three runs of the same generated streams must agree
on everything observable: ``process_batch(materialize=False)``,
``process_batch(materialize=True)`` and one ``process()`` call per key.

The streams carry duplicates, fresh covert keys that upcall mid-burst,
victim keys and clock jumps long enough to fire revalidator sweeps
that expire idle megaflows, under every EMC insertion regime and both
the insertion and ranked scan orders (the latter with a small
``resort_interval``, so auto re-sorts fire inside bursts).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.net.addresses import ip_to_int
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ipv4 import PROTO_TCP
from repro.ovs.switch import BatchResult, LookupPath, OvsSwitch

_POLICY, _DIMENSIONS = kubernetes_attack_policy()
_TARGET = PolicyTarget(
    pod_ip=ip_to_int("10.0.9.10"), output_port=42, tenant="mallory"
)
_RULES = KubernetesCms().compile(_POLICY, _TARGET, OVS_FIELDS)
_COVERT = CovertStreamGenerator(_DIMENSIONS, dst_ip=_TARGET.pod_ip).keys()
#: covert keys installed before the first burst (megaflow hits)
_INSTALLED = 24
#: installed covert keys, fresh covert keys (each upcalls on first
#: sight) and victim keys
_POOL = _COVERT[:_INSTALLED + 16] + [
    FlowKey(OVS_FIELDS, {
        "in_port": 1, "eth_type": ETHERTYPE_IPV4,
        "ip_src": 0x0A000100 + i, "ip_dst": 0x0A000200,
        "ip_proto": PROTO_TCP, "tp_src": 33000 + i, "tp_dst": 5201,
    })
    for i in range(4)
]

MODES = ("aggregate", "materialized", "per-key")


def _switch(emc_insertion_prob, scan_order, resort_interval):
    switch = OvsSwitch(
        space=OVS_FIELDS, name="fold", emc_insertion_prob=emc_insertion_prob,
        emc_entries=64, scan_order=scan_order,
        resort_interval=resort_interval,
    )
    switch.add_rules(_RULES)
    for key in _COVERT[:_INSTALLED]:
        switch.slow_path.handle(key, now=0.0)
    return switch


def _run(switch, mode, keys, now):
    if mode == "aggregate":
        return switch.process_batch(keys, now=now, materialize=False)
    if mode == "materialized":
        return switch.process_batch(keys, now=now)
    batch = BatchResult()
    for key in keys:
        result = switch.process(key, now=now)
        batch.add(result)
        if result.path is LookupPath.UPCALL and result.entry is not None:
            batch.installed.append((key, result.entry))
    return batch


def _counters(batch):
    return (
        batch.packets, batch.tuples_scanned, batch.hash_probes,
        batch.forwarded, batch.drops, batch.upcalls, batch.emc_hits,
        batch.megaflow_hits,
        [(key, entry.match) for key, entry in batch.installed],
    )


def _results(batch):
    return [(r.action.kind, r.path, r.tuples_scanned, r.hash_probes,
             r.install_skipped, r.entry.match if r.entry else None)
            for r in batch.results]


def _state(switch):
    tss = switch.megaflow.tss
    micro = switch.microflow
    return {
        "stats": switch.stats.snapshot(),
        "entries": sorted(
            (masks, values, entry.hits, entry.last_used)
            for masks, values, entry in tss.iter_entries()
        ),
        "subtables": [(s.masks, s.hits, s.rank_hits)
                      for s in tss.subtables()],
        "tss": (tss.total_lookups, tss.total_tuples_scanned,
                tss.total_hash_probes, tss.resorts),
        "emc": (micro.lookups, micro.hits, micro.insertions,
                micro.evictions, micro.stale_hits, micro.occupancy),
        "expired": switch.megaflow.expired_total,
        "clock": switch.clock,
    }


def _assert_modes_agree(bursts, steps, emc_insertion_prob, order):
    switches = {mode: _switch(emc_insertion_prob, *order) for mode in MODES}
    now = 1.0
    for burst, step in zip(bursts, steps):
        now += step
        keys = [_POOL[i] for i in burst]
        batches = {mode: _run(switches[mode], mode, keys, now)
                   for mode in MODES}
        expected = _counters(batches["per-key"])
        for mode in ("aggregate", "materialized"):
            assert _counters(batches[mode]) == expected, mode
        assert batches["aggregate"].results == []
        assert _results(batches["materialized"]) == \
            _results(batches["per-key"])
        reference = _state(switches["per-key"])
        for mode in ("aggregate", "materialized"):
            assert _state(switches[mode]) == reference, mode


#: bursts over a few dozen distinct keys, so duplicates are common
_bursts = st.lists(
    st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=120),
    min_size=1, max_size=5,
)


class TestScalarFoldMatchesPerKey:
    @settings(max_examples=120, deadline=None)
    @given(
        bursts=_bursts,
        steps=st.lists(st.sampled_from([0.0, 0.5, 4.0, 11.0]),
                       min_size=5, max_size=5),
        emc_insertion_prob=st.sampled_from([0.0, 0.5, 1.0]),
        order=st.sampled_from([("insertion", 0), ("ranked", 0),
                               ("ranked", 3), ("ranked", 7)]),
    )
    def test_generated_streams(self, bursts, steps, emc_insertion_prob,
                               order):
        _assert_modes_agree(bursts, steps, emc_insertion_prob, order)

    def test_laps_with_fresh_keys_and_expiry(self):
        # a lap replayed several times per burst, fresh keys first seen
        # mid-lap, then a jump past the idle timeout that expires it all
        lap = list(range(_INSTALLED + 16))
        bursts = [lap * 3, lap[::-1] * 2, (lap + [40, 41]) * 2, lap]
        for prob in (0.0, 0.5, 1.0):
            for order in (("insertion", 0), ("ranked", 3)):
                _assert_modes_agree(bursts, [0.0, 0.5, 11.0, 0.5], prob,
                                    order)
