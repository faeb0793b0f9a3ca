"""``repro.perf`` — cost model, workloads and the dataplane simulator.

The paper's performance claims are *relative* (peak reduced to 10 %, a
full DoS); its absolute Gbps are artefacts of the authors' testbed.  We
therefore split performance into two layers:

* :class:`CostModel` — per-packet cycle costs for each pipeline path,
  calibrated (see :mod:`repro.perf.costmodel`) so that the paper's anchors hold:
  512 masks ⇒ ≈10 % of peak, 8192 masks ⇒ <2 % (DoS), ≤8 masks ⇒ ≥90 %.
  The *shape* — capacity ∝ 1/(a + b·masks) — is structural: it follows
  from the TSS sequential scan, not from the calibration.
* :class:`DataplaneSimulator` — a discrete-time simulation that runs the
  attacker's covert stream through a **real** :class:`~repro.ovs.switch.
  OvsSwitch` (so mask counts, expiry and flow limits are exact) while
  modelling the victim's aggregate traffic analytically (running 83 kpps
  of victim packets one by one would be prohibitive in Python and adds
  nothing: all victim packets see the same cache state within a tick).

Scan-cost convention: the kernel datapath keeps its mask array unordered
(deletion swaps the last mask into the hole), so the expected number of
subtables scanned is ``(n+1)/2`` on a hit and ``n`` on a miss.  The
wall-clock benchmarks in ``benchmarks/`` exercise the *real* TSS instead
and reproduce the same linearity.
"""

from repro.perf.costmodel import CostModel, DatapathProfile, KERNEL_PROFILE, NETDEV_PROFILE
from repro.perf.factory import PROFILES, profile_by_name, switch_for_profile
from repro.perf.workload import AttackerWorkload, VictimWorkload
from repro.perf.series import TimeSeries, Window
from repro.perf.simulator import DataplaneSimulator, SimulationResult

__all__ = [
    "AttackerWorkload",
    "CostModel",
    "DataplaneSimulator",
    "DatapathProfile",
    "KERNEL_PROFILE",
    "NETDEV_PROFILE",
    "PROFILES",
    "SimulationResult",
    "TimeSeries",
    "VictimWorkload",
    "Window",
    "profile_by_name",
    "switch_for_profile",
]
