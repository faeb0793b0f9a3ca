"""Metric names and units, and the reduction of one traced run to the
per-layer metrics.  ``BENCHMARK.json`` lists exactly these; a test
keeps the two in step."""

from __future__ import annotations

#: (name, unit, better) of every end-to-end metric.  An operation is a
#: burst for serve and a tick for campaigns; its cost is its host time
#: over the time of the host-speed probe run just before it
#: (``perfbench.calib``), in ``cal``.  The tail is p90, which every
#: workload's 100 or more operations per repetition allow (10 beyond
#: it); p99 moves with the host's brief stalls, which the probe misses.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("sim_ms_per_cal", "sim_ms/cal", "higher"),
    ("op_cost.p50", "cal", "lower"),
    ("op_cost.p90", "cal", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: per boundary, the span totals reported: ``calls``, the boundary's
#: work count (``keys`` or ``rules``) and ``self_s``
SPAN_FIELDS = {
    "ovs.pmd.process_batch": ("calls", "keys", "self_s"),
    "ovs.switch.process_batch": ("calls", "keys", "self_s"),
    "ovs.megaflow.lookup_batch": ("calls", "keys", "self_s"),
    "ovs.megaflow.insert": ("calls", "self_s"),
    "ovs.tss.lookup_batch": ("calls", "keys", "self_s"),
    "ovs.tss.remove_if": ("calls", "self_s"),
    "ovs.upcall.handle": ("calls", "self_s"),
    "ovs.wildcarding.classify": ("calls", "self_s"),
    "ovs.revalidator.sweep": ("calls", "self_s"),
    "vec.switch.process_batch": ("calls", "keys", "self_s"),
    "vec.tss.lookup_batch": ("calls", "keys", "self_s"),
    "vec.tss.scalar_fallback": ("calls", "keys"),
    "vec.codec.encode": ("calls", "self_s"),
    "perf.simulator.step": ("calls", "self_s"),
    "runtime.service.snapshot": ("calls", "self_s"),
    "runtime.parallel.process_batch": ("calls", "keys", "self_s"),
    "runtime.parallel.start": ("self_s",),
    "cms.compile": ("rules", "self_s"),
    "attack.covert_keys": ("keys", "self_s"),
}

#: the program's own switch counters, read after the run
STAT_FIELDS = ("packets", "emc_hits", "megaflow_hits", "upcalls",
               "tuples_scanned")

#: (name, unit, better) of the ratios of useful outcomes to attempts
RATIOS = (
    ("ovs.switch.emc_hit_ratio", "ratio", "higher"),
    ("ovs.switch.upcall_ratio", "ratio", "lower"),
    ("ovs.tss.hit_ratio", "ratio", "higher"),
    ("ovs.tss.tuples_per_key", "tuples/key", "lower"),
    ("vec.tss.vectorized_ratio", "ratio", "higher"),
)

#: counters where more means the fast path did more of the work
HIGHER_COUNTS = ("ovs.stats.emc_hits", "ovs.stats.megaflow_hits")


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and better direction,
    in report order.  Work counts are better lower: the same output for
    less work."""
    found: dict[str, tuple[str, str]] = {}
    for boundary, fields in SPAN_FIELDS.items():
        for field in fields:
            unit = "s" if field == "self_s" else "count"
            found[f"{boundary}.{field}"] = (unit, "lower")
    for name, unit, better in RATIOS:
        found[name] = (unit, better)
    for field in STAT_FIELDS:
        name = f"ovs.stats.{field}"
        found[name] = ("count", "higher" if name in HIGHER_COUNTS else "lower")
    found["ovs.masks.total"] = ("count", "lower")
    found["trace.overhead_ratio"] = ("ratio", "lower")
    return found


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(totals: dict, stats: dict, masks_total: int,
              overhead_ratio: float) -> dict[str, float]:
    """One traced run's per-layer metrics.  ``totals`` is
    :func:`perfbench.spans.layer_totals` output; boundaries the run
    never reached report 0."""
    values: dict[str, float] = {}
    for boundary, fields in SPAN_FIELDS.items():
        entry = totals.get(boundary, {})
        for field in fields:
            source = field if field in ("calls", "self_s") else "count"
            values[f"{boundary}.{field}"] = entry.get(source, 0)
    lookups = stats["megaflow_hits"] + stats["upcalls"]
    vec_keys = values["vec.tss.lookup_batch.keys"]
    values["ovs.switch.emc_hit_ratio"] = _share(stats["emc_hits"],
                                                stats["packets"])
    values["ovs.switch.upcall_ratio"] = _share(stats["upcalls"],
                                               stats["packets"])
    values["ovs.tss.hit_ratio"] = _share(stats["megaflow_hits"], lookups)
    values["ovs.tss.tuples_per_key"] = _share(stats["tuples_scanned"],
                                              lookups)
    values["vec.tss.vectorized_ratio"] = _share(
        vec_keys - values["vec.tss.scalar_fallback.keys"], vec_keys)
    for field in STAT_FIELDS:
        values[f"ovs.stats.{field}"] = stats[field]
    values["ovs.masks.total"] = masks_total
    values["trace.overhead_ratio"] = overhead_ratio
    return values
