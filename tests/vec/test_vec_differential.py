"""Differential tests: the columnar ``VecSwitch`` against the reference
``OvsSwitch`` on generated duplicate-heavy bursts, plus the scan
window's memory bound.

Every generated stream mixes megaflow hits, fresh covert keys that
upcall mid-burst (their later repeats in the same burst must see the
new megaflow) and victim keys, under every EMC insertion regime, both
result modes and both scan orders the columnar scan serves.  After
each burst the two switches must agree on everything observable:
batch counters and installs, switch stats, per-entry and per-subtable
hit bookkeeping, EMC counters and the mask census.
"""

import dataclasses

import pytest
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
from repro.obs.export import mask_census
from repro.ovs.switch import OvsSwitch
from repro.vec import HAVE_NUMPY

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

if HAVE_NUMPY:
    from repro.vec.engine import VecSwitch, VecTupleSpaceSearch

_POLICY, _DIMENSIONS = kubernetes_attack_policy()
_TARGET = PolicyTarget(
    pod_ip=ip_to_int("10.0.9.10"), output_port=42, tenant="mallory"
)
_RULES = KubernetesCms().compile(_POLICY, _TARGET, OVS_FIELDS)
_COVERT = CovertStreamGenerator(_DIMENSIONS, dst_ip=_TARGET.pod_ip).keys()
#: covert keys installed before the first burst (megaflow hits)
_INSTALLED = 48
#: the key pool bursts draw from: installed covert keys, fresh covert
#: keys (each upcalls on first sight) and victim keys
_POOL = _COVERT[:_INSTALLED + 24] + [
    FlowKey(OVS_FIELDS, {
        "in_port": 1, "eth_type": ETHERTYPE_IPV4,
        "ip_src": 0x0A000100 + i, "ip_dst": 0x0A000200,
        "ip_proto": PROTO_TCP, "tp_src": 33000 + i, "tp_dst": 5201,
    })
    for i in range(4)
]


def _pair(emc_insertion_prob, emc_entries, scan_order, resort_interval,
          scan_window):
    kwargs = dict(emc_insertion_prob=emc_insertion_prob,
                  emc_entries=emc_entries, scan_order=scan_order,
                  resort_interval=resort_interval)
    switches = []
    for cls in (OvsSwitch, VecSwitch):
        switch = cls(space=OVS_FIELDS, name="diff", **kwargs)
        switch.add_rules(_RULES)
        for key in _COVERT[:_INSTALLED]:
            switch.slow_path.handle(key, now=0.0)
        switches.append(switch)
    ref, vec = switches
    assert isinstance(vec.megaflow.tss, VecTupleSpaceSearch)
    vec.megaflow.tss.SCAN_WINDOW = scan_window
    return ref, vec


def _batch_view(batch):
    return (
        batch.packets, batch.tuples_scanned, batch.hash_probes,
        batch.forwarded, batch.drops, batch.upcalls, batch.emc_hits,
        batch.megaflow_hits,
        [(key, entry.match) for key, entry in batch.installed],
        [(r.action.kind, r.path, r.tuples_scanned, r.hash_probes,
          r.install_skipped, r.entry.match if r.entry else None)
         for r in batch.results],
    )


def _state(switch):
    tss = switch.megaflow.tss
    micro = switch.microflow
    return {
        "stats": switch.stats.snapshot(),
        "entries": sorted(
            (masks, values, entry.hits, entry.last_used, entry.created_at)
            for masks, values, entry in tss.iter_entries()
        ),
        "subtables": [(s.masks, s.hits, s.rank_hits)
                      for s in tss.subtables()],
        "tss": (tss.total_lookups, tss.total_tuples_scanned,
                tss.total_hash_probes, tss.resorts,
                tss._lookups_since_resort),
        "emc": (micro.lookups, micro.hits, micro.insertions,
                micro.evictions, micro.stale_hits, micro.occupancy),
        "masks": mask_census(switch),
        "megaflows": switch.megaflow_count,
        "clock": switch.clock,
    }


def _assert_same(ref, vec, bursts, steps, materialize):
    now = 1.0
    for burst, step in zip(bursts, steps):
        now += step
        keys = [_POOL[i] for i in burst]
        expected = ref.process_batch(keys, now=now, materialize=materialize)
        got = vec.process_batch(keys, now=now, materialize=materialize)
        assert _batch_view(got) == _batch_view(expected)
        assert _state(vec) == _state(ref)


#: bursts over a handful of distinct keys, so duplicates dominate
_bursts = st.lists(
    st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=160),
    min_size=1, max_size=5,
)


class TestVecMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(
        bursts=_bursts,
        steps=st.lists(st.sampled_from([0.0, 0.5, 4.0, 11.0]),
                       min_size=5, max_size=5),
        emc_insertion_prob=st.sampled_from([0.0, 0.5, 1.0]),
        emc_entries=st.sampled_from([8192, 8]),
        order=st.sampled_from([("insertion", 0), ("ranked", 0),
                               ("ranked", 5), ("ranked", 40)]),
        scan_window=st.sampled_from([1024, 17]),
        materialize=st.booleans(),
    )
    def test_duplicate_heavy_bursts(self, bursts, steps, emc_insertion_prob,
                                    emc_entries, order, scan_window,
                                    materialize):
        ref, vec = _pair(emc_insertion_prob, emc_entries, *order,
                         scan_window)
        _assert_same(ref, vec, bursts, steps, materialize)

    @pytest.mark.parametrize("emc_insertion_prob", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("materialize", [True, False])
    def test_laps_with_fresh_keys(self, emc_insertion_prob, materialize):
        # a covert lap replayed several times in one burst, with fresh
        # keys first seen mid-lap: the campaign replay's shape, small
        ref, vec = _pair(emc_insertion_prob, 8192, "insertion", 0, 1024)
        lap = list(range(_INSTALLED + 24))
        bursts = [lap * 4, lap[::-1] * 3, (lap + [72, 73]) * 5]
        _assert_same(ref, vec, bursts, [0.0, 0.5, 11.0], materialize)

    @pytest.mark.parametrize("resort_interval", [5, 40])
    def test_ranked_resort_cap_with_window(self, resort_interval):
        ref, vec = _pair(0.0, 8192, "ranked", resort_interval, 17)
        lap = list(range(_INSTALLED + 24))
        _assert_same(ref, vec, [lap * 6, lap * 6], [0.0, 0.5], False)


class TestScanWindow:
    """However many duplicates a burst carries, one dense scan holds
    scratch rows for at most ``SCAN_WINDOW`` distinct keys."""

    def _run(self, monkeypatch, scan_window):
        rows = []
        original = VecTupleSpaceSearch._scratch

        def spy(self, n):
            rows.append(n)
            return original(self, n)

        monkeypatch.setattr(VecTupleSpaceSearch, "_scratch", spy)
        ref, vec = _pair(0.0, 8192, "insertion", 0, scan_window)
        # 20k keys over 516 distinct: every covert key (all but the 48
        # installed ones upcall on first sight) and the victim keys
        distinct = _COVERT + _POOL[-4:]
        burst = [distinct[(i * 7) % len(distinct)] for i in range(20_000)]
        expected = ref.process_batch(burst, now=1.0, materialize=False)
        got = vec.process_batch(burst, now=1.0, materialize=False)
        assert _batch_view(got) == _batch_view(expected)
        assert _state(vec) == _state(ref)
        return rows

    def test_default_window_bounds_rows_by_distinct_keys(self, monkeypatch):
        rows = self._run(monkeypatch, VecTupleSpaceSearch.SCAN_WINDOW)
        assert rows and max(rows) <= 516

    def test_small_window_caps_every_scan(self, monkeypatch):
        rows = self._run(monkeypatch, 128)
        assert rows and max(rows) <= 128
        # the window is counted in distinct keys: the first full scan
        # after the upcalls settle covers the whole window
        assert max(rows) == 128

    def test_run_of_repeats_is_scanned_once_per_distinct_key(self):
        ref, vec = _pair(0.0, 8192, "insertion", 0, 1024)
        lap = _COVERT[:_INSTALLED]
        for _ in range(6):  # let the chunk window ramp past the burst
            vec.process_batch(lap, now=1.0, materialize=False)
        calls = []
        tss = vec.megaflow.tss
        original = tss.lookup_batch

        def counting(keys):
            results = original(keys)
            calls.append(len(results))
            return results

        tss.lookup_batch = counting
        vec.process_batch(lap * 32, now=2.0, materialize=False)
        # one lookup covers the whole duplicate-heavy burst, past the
        # old 1024-raw-key chunk cap
        assert calls == [len(lap) * 32]


def test_float_rank_hits_fold_exactly():
    """Pinned: a ranked TSS whose decayed ``rank_hits`` carry a long
    binary fraction, credited 16 hits in one burst — for this value
    ``x + 16`` rounds differently from 16 separate ``+ 1``."""
    ref, vec = _pair(0.0, 8192, "ranked", 0, 1024)
    x = float.fromhex("0x1.800000000003bp+1")
    assert x + 16 != sum([1.0] * 16, x)
    for switch in (ref, vec):
        for _ in range(6):  # ramp the chunk window onto the dense scan
            switch.process_batch(_COVERT[:_INSTALLED], now=1.0,
                                 materialize=False)
        for subtable in switch.megaflow.tss.subtables():
            subtable.rank_hits = x
    burst = [_COVERT[0]] * 16 + [_COVERT[1]] * 16
    ref.process_batch(burst, now=1.0, materialize=False)
    vec.process_batch(burst, now=1.0, materialize=False)
    assert _state(vec) == _state(ref)
    assert dataclasses.asdict(vec.stats) == dataclasses.asdict(ref.stats)
