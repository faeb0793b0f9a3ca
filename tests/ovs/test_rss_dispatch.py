"""RSS steering (``RssDispatch``): the memoized bucket against the raw
hash, the memo's size bound, identical dispatch in the serial and
parallel datapaths, and exact dispatch across a PMD rebalancer remap."""

from repro.attack.packets import CovertStreamGenerator
from repro.attack.policy import kubernetes_attack_policy
from repro.cms.base import PolicyTarget
from repro.cms.kubernetes import KubernetesCms
from repro.flow.fields import OVS_FIELDS
from repro.flow.key import FlowKey
from repro.net.addresses import ip_to_int
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.ipv4 import PROTO_TCP
from repro.ovs.pmd import RssDispatch, rss_hash
from repro.perf.factory import sharded_switch_for_profile
from repro.runtime.parallel import ParallelDatapath


def _keys(count, offset=0):
    return [
        FlowKey(
            OVS_FIELDS,
            {"eth_type": ETHERTYPE_IPV4, "ip_src": 0x0A000000 + i,
             "ip_dst": 0x0A020000 + (i * 3) % 251, "ip_proto": PROTO_TCP,
             "tp_src": 1024 + i % 50_000, "tp_dst": (i * 31) % 65536},
        )
        for i in range(offset, offset + count)
    ]


def _raw_bucket(dispatcher, key):
    return rss_hash(key.packed & dispatcher._rss_mask) % dispatcher.reta_size


class TestBucketMemo:
    def test_memo_matches_raw_hash_past_its_cap(self):
        datapath = sharded_switch_for_profile("kernel", shards=4, seed=0)
        datapath.BUCKET_MEMO_LIMIT = 256
        keys = _keys(5000)
        sizes = []
        # twice over: the second pass meets keys the memo dropped
        for key in keys + keys[::-1]:
            assert datapath.bucket_of(key) == _raw_bucket(datapath, key)
            sizes.append(len(datapath._bucket_memo))
        assert max(sizes) <= 256
        assert min(sizes) >= 1

    def test_default_cap_bounds_the_memo(self):
        datapath = sharded_switch_for_profile("kernel", shards=2, seed=0)
        limit = RssDispatch.BUCKET_MEMO_LIMIT
        for key in _keys(limit + 100):
            datapath.bucket_of(key)
        assert len(datapath._bucket_memo) <= limit

    def test_one_shard_steers_everything_to_shard_zero(self):
        datapath = sharded_switch_for_profile("kernel", shards=1, seed=0)
        keys = _keys(32)
        assert {datapath.shard_of(key) for key in keys} == {0}
        assert list(datapath.group_by_shard(keys)) == [0]

    def test_group_by_shard_keeps_arrival_order(self):
        datapath = sharded_switch_for_profile("kernel", shards=3, seed=0)
        keys = _keys(200)
        groups = datapath.group_by_shard(iter(keys))
        assert sum(len(group) for group in groups.values()) == len(keys)
        for shard, group in groups.items():
            assert group == [k for k in keys if datapath.shard_of(k) == shard]


class TestSerialAndParallelAgree:
    def test_same_buckets_shards_and_groups(self):
        for shards in (2, 3, 4):
            serial = sharded_switch_for_profile("kernel", shards=shards,
                                                seed=0)
            # never started: the parallel dispatcher runs in-process
            parallel = ParallelDatapath.from_profile("kernel", shards=shards)
            try:
                keys = _keys(500)
                for key in keys:
                    assert parallel.bucket_of(key) == serial.bucket_of(key)
                    assert parallel.shard_of(key) == serial.shard_of(key)
                assert parallel.reta == serial.reta
                assert parallel.group_by_shard(keys) == \
                    serial.group_by_shard(keys)
            finally:
                parallel.close()


class TestRemapStaysExact:
    def test_dispatch_follows_a_rebalancer_remap(self):
        policy, dimensions = kubernetes_attack_policy()
        target = PolicyTarget(
            pod_ip=ip_to_int("10.0.9.10"), output_port=42, tenant="mallory"
        )
        datapath = sharded_switch_for_profile(
            "kernel", shards=4, seed=0, rebalance_interval=1.0
        )
        datapath.add_rules(KubernetesCms().compile(policy, target,
                                                   OVS_FIELDS))
        keys = CovertStreamGenerator(dimensions,
                                     dst_ip=target.pod_ip).keys()[:256]
        # warm the memo under the identity table
        datapath.process_batch(keys, now=0.0)
        before = list(datapath.reta)
        # all the load on shard 0's buckets, then a due pass remaps
        for bucket in range(0, datapath.reta_size, 4):
            datapath.record_bucket_cycles(bucket, 1e6)
        datapath.advance_clock(1.0)
        assert datapath.rebalancer.buckets_moved > 0
        assert datapath.reta != before
        for key in keys:
            bucket = _raw_bucket(datapath, key)
            assert datapath.bucket_of(key) == bucket
            assert datapath.shard_of(key) == datapath.reta[bucket]
        # a burst after the remap lands on the remapped shards
        counts = [shard.stats.packets for shard in datapath.shards]
        datapath.process_batch(keys, now=1.5)
        expected = [0] * 4
        for key in keys:
            expected[datapath.reta[_raw_bucket(datapath, key)]] += 1
        assert [shard.stats.packets - count for shard, count
                in zip(datapath.shards, counts)] == expected
