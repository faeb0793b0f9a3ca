"""Ablation — victim flow diversity: who actually gets hurt.

The cost model's load-bearing modelling assumption (see
:mod:`repro.perf.costmodel`) is that the victim is a connection-rich
cloud service.  This ablation sweeps the victim's
concurrent-flow count under the 8192-mask attack: a single fat flow
stays microflow-cached and barely notices; a few thousand short
connections are fully exposed to the TSS scan.  (The same distinction
appears in the authors' follow-up work on tuple-space explosion.)

The covert rate is set just above the 8192-mask refresh floor
(~0.42 Mbps) rather than the paper's 2 Mbps: at higher rates the
attacker's *own* scans burn most of the shared core, which hurts every
victim and would mask the cache-shielding effect this ablation isolates
(the covert-rate ablation covers that other mechanism).
"""

from benchmarks.conftest import emit
from repro.attack.campaign import AttackCampaign
from repro.attack.policy import calico_attack_policy
from repro.cms.calico import CalicoCms
from repro.net.addresses import ip_to_int
from repro.perf.factory import switch_for_profile
from repro.perf.workload import AttackerWorkload, VictimWorkload
from repro.util.ascii_chart import AsciiTable

FLOW_COUNTS = [1, 64, 1024, 5000, 20000]


def _run(concurrent_flows: int) -> float:
    policy, dims = calico_attack_policy()
    campaign = AttackCampaign(
        cms=CalicoCms(),
        policy=policy,
        dimensions=dims,
        attacker_pod_ip=ip_to_int("10.0.9.10"),
        victim=VictimWorkload(
            offered_bps=1e9,
            concurrent_flows=concurrent_flows,
            new_flows_per_sec=min(500.0, concurrent_flows * 2.0),
        ),
        attacker=AttackerWorkload(rate_bps=0.6e6, start_time=15.0),
        duration=60.0,
        switch=switch_for_profile("netdev"),
    )
    return campaign.run().simulation.degradation()


def test_bench_victim_diversity(benchmark):
    def sweep():
        return {flows: _run(flows) for flows in FLOW_COUNTS}

    ratios = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = AsciiTable(
        ["Concurrent victim flows", "Post-attack throughput"],
        title="Ablation — victim flow diversity (8192 masks, netdev EMC, 0.6 Mbps covert)",
    )
    for flows, ratio in ratios.items():
        table.add_row([flows, f"{ratio:.1%} of baseline"])
    emit("Ablation — victim diversity", table.render())

    # a single-flow victim hides behind the exact-match cache...
    assert ratios[1] > 0.9
    # ...while a connection-rich one collapses
    assert ratios[20000] < 0.1
    # and the damage is monotone in diversity
    ordered = [ratios[f] for f in FLOW_COUNTS]
    assert all(a >= b - 1e-9 for a, b in zip(ordered, ordered[1:]))
