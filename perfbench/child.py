"""One repetition of a workload in a fresh interpreter.

The runner starts one of these per repetition, so each one pays the
full set-up (interpreter start, imports, spec resolution, CMS compile,
covert keys, datapath build, worker fork) and has its own peak RSS.  It
prints one JSON line with the host monotonic clock when set-up ended
(``ready``), then one JSON line with the result.  With ``--trace`` the
boundary wrappers are installed before set-up and the result carries
the per-boundary span totals and their cross-check against the
program's counters.

    python3 perfbench/child.py --variant serve-deepscan --seed 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # run as a script: import the program and this package from the
    # checkout instead of from this file's directory
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spans as spanlib  # noqa: E402
from perfbench import workloads  # noqa: E402


def final_counters(run) -> tuple[dict, int, dict | None]:
    """``(switch stats, total masks, internal counters)`` after a run.
    Serve reads its final snapshot, because the service has closed the
    datapath by then.  The internal counters — slow-path upcalls,
    megaflow inserts, revalidator sweeps, TSS lookups — exist only
    where the shards live in this process."""
    from repro.obs.export import mask_census
    from repro.ovs.pmd import shard_views

    if run.kind == "serve":
        state = run.report.final["state"]
        stats, masks = state["stats"], state["total_mask_count"]
    else:
        stats = run.sim.switch.stats.snapshot()
        masks = mask_census(run.sim.switch)[1]
    views = shard_views(run.datapath())
    if not all(hasattr(view, "slow_path") for view in views):
        return stats, masks, None
    internal = {
        "upcalls": sum(v.slow_path.upcalls for v in views),
        "inserts": sum(v.megaflow.inserts + v.megaflow.rejected_inserts
                       for v in views),
        "sweeps": sum(v.revalidator.sweeps for v in views),
        "lookups": sum(v.megaflow.tss.total_lookups for v in views),
    }
    return stats, masks, internal


def cross_check(recorded: list[list], totals: dict, stats: dict,
                internal: dict | None) -> list[str]:
    """Span counts against the program's counters wherever both count
    the same event; a mismatch means a wrapper missed calls."""
    def total(name: str, field: str) -> int:
        return totals.get(name, {}).get(field, 0)

    pairs = [("keys into the datapath", spanlib.outermost_batch_keys(recorded),
              "ovs.stats.packets", stats["packets"])]
    if internal is not None:
        pairs += [
            ("ovs.upcall.handle.calls", total("ovs.upcall.handle", "calls"),
             "slow-path upcalls", internal["upcalls"]),
            ("ovs.megaflow.insert.calls", total("ovs.megaflow.insert", "calls"),
             "megaflow inserts", internal["inserts"]),
            ("ovs.revalidator.sweep.calls",
             total("ovs.revalidator.sweep", "calls"),
             "revalidator sweeps", internal["sweeps"]),
            ("ovs.tss + vec.tss lookup_batch keys",
             total("ovs.tss.lookup_batch", "count")
             + total("vec.tss.lookup_batch", "count"),
             "TSS lookups", internal["lookups"]),
        ]
    return [f"{left} = {a} but {right} = {b}"
            for left, a, right, b in pairs if a != b]


def run_once(variant: str, seed: int, trace: bool = False,
             duration: float | None = None, trace_out: Path | None = None,
             on_ready=None) -> dict:
    """Build and run one repetition; returns the result record.  An
    exception during set-up propagates (there is nothing to measure);
    one during the operations is recorded with the count completed."""
    build = workloads.BUILDS[variant]
    recorder = spanlib.SpanRecorder()
    with contextlib.ExitStack() as stack:
        if trace:
            stack.enter_context(spanlib.installed(recorder))
        run = build(seed) if duration is None else build(seed, duration)
        if on_ready is not None:
            on_ready(run)

        def on_op(index: int) -> None:
            recorder.op = index

        error = None
        try:
            run.execute(on_op=on_op if trace else None)
        except Exception:  # noqa: BLE001 - reported as failed operations
            error = traceback.format_exc()
    result = {
        "variant": variant,
        "seed": seed,
        "planned": run.planned,
        "completed": run.completed,
        "error": error,
        "op_s": run.op_s,
        "cal_s": run.cal_s,
        "loop_s": run.loop_s,
        "sim_s": run.sim_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": None,
        "invariants": [],
        "extra": {},
    }
    if error is not None:
        return result
    result["digest"] = run.digest()
    result["invariants"] = run.invariants()
    result["extra"] = run.extra()
    if trace:
        totals = spanlib.layer_totals(recorder.spans)
        stats, masks, internal = final_counters(run)
        result["totals"] = totals
        result["stats"] = stats
        result["masks_total"] = masks
        result["cross_check"] = cross_check(recorder.spans, totals, stats,
                                            internal)
        result["spans"] = len(recorder.spans)
        if trace_out is not None:
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            trace_out.write_text(json.dumps(
                spanlib.chrome_trace(recorder.spans, variant)))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--variant", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    def ready(run) -> None:
        print(json.dumps({"ready": time.monotonic(), "planned": run.planned}),
              flush=True)

    result = run_once(args.variant, args.seed, trace=args.trace,
                      trace_out=args.trace_out, on_ready=ready)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
