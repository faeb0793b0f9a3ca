"""The observability layer's two contracts, gated: **zero overhead when
disabled** and **pure observation when enabled**.

Four gates, all of which exit non-zero (failing CI) when violated:

1. **Byte identity** — enabling telemetry must not change a single
   output value anywhere it is threaded:

   - the ``k8s-deepscan`` simulator series (every row of every column),
   - a one-node static fleet's node + aggregate series,
   - the serial (``workers=0``) and parallel (``workers=2``) serve
     runtimes' deterministic views (the parallel workers ship their
     metric deltas over the existing mailbox wire fields, so the serve
     wire counters must also agree serial-vs-parallel).

2. **Overhead** — the fully instrumented ``k8s-deepscan`` campaign must
   cost at most ``OVERHEAD_LIMIT`` (5%) extra wall clock over the
   uninstrumented run.  The runs are timed in ``--repeats``
   interleaved disabled/enabled pairs (the first side of each pair
   alternates), and the gate reads the median of the per-pair
   enabled/disabled ratios: drift in machine speed hits both sides of
   a pair alike, and the median ignores the pairs a scheduler hiccup
   lands in.

3. **Trace validity** — the enabled run's Chrome trace-event export
   must be a well-formed Perfetto-loadable document: a non-empty
   ``traceEvents`` array of ``"M"`` metadata and complete ``"X"``
   spans with numeric timestamps.

4. **Profile attribution** — the cycle profile's total must equal the
   ``sim.cycles.charged`` counter (every charged cycle is attributed,
   none invented).

Emits a ``BENCH_obs.json`` perf record; ``--trace-out FILE`` addition-
ally writes the sample Chrome trace (the CI artifact).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py          # full
    PYTHONPATH=src python benchmarks/bench_obs.py --quick  # CI
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet import FleetSession, FleetSpec  # noqa: E402
from repro.obs import Telemetry  # noqa: E402
from repro.runtime.service import build_service  # noqa: E402
from repro.scenario import SCENARIOS, Session  # noqa: E402

#: enabled-telemetry wall-clock ceiling (fraction over the disabled run)
OVERHEAD_LIMIT = 0.05

#: the serve equivalence runs (serial reference vs parallel runtime)
SERVE_WORKERS = (0, 2)


def _spec(duration: float, attack_start: float):
    return SCENARIOS.get("k8s-deepscan").evolve(
        duration=duration, attack_start=attack_start, name="obs-deepscan"
    )


def _timed_campaign(spec, telemetry):
    begin = time.perf_counter()
    Session(spec, telemetry=telemetry).run()
    return time.perf_counter() - begin


def _serve_view(workers: int, telemetry, serve_duration: float):
    service = build_service(
        SCENARIOS.get("k8s-serve").evolve(shards=2),
        workers=workers,
        duration=serve_duration,
        rate_pps=2560.0,
        report_interval=0.5,
        telemetry=telemetry,
    )
    return service.run().deterministic_view()


def check_identity(duration: float, attack_start: float,
                   serve_duration: float) -> list[str]:
    """Gate 1: enabled telemetry changes nothing, anywhere.  Returns
    mismatch descriptions (empty = byte-identical)."""
    problems: list[str] = []
    spec = _spec(duration, attack_start)

    plain = Session(spec).run()
    observed = Session(spec, telemetry=Telemetry()).run()
    if plain.series.columns != observed.series.columns:
        problems.append("simulator series columns differ")
    elif plain.series.rows != observed.series.rows:
        problems.append("simulator series rows differ with telemetry on")
    if plain.scan_stats() != observed.scan_stats():
        problems.append("scan_stats differ with telemetry on")

    fleet_duration = min(duration, 14.0)
    fleet_spec = FleetSpec(
        scenario=_spec(fleet_duration, attack_start),
        nodes=1, mobility="static",
    )
    fleet_plain = FleetSession(fleet_spec).run()
    fleet_observed = FleetSession(fleet_spec, telemetry=Telemetry()).run()
    if fleet_plain.node_series[0].rows != fleet_observed.node_series[0].rows:
        problems.append("N=1 fleet node series differ with telemetry on")
    if fleet_plain.aggregate.rows != fleet_observed.aggregate.rows:
        problems.append("N=1 fleet aggregate series differ with telemetry on")

    serve_views = {}
    for workers in SERVE_WORKERS:
        plain_view = _serve_view(workers, None, serve_duration)
        observed_view = _serve_view(workers, Telemetry(), serve_duration)
        if plain_view != observed_view:
            problems.append(
                f"serve (workers={workers}) deterministic view differs "
                "with telemetry on"
            )
        serve_views[workers] = plain_view
    if serve_views[SERVE_WORKERS[0]] != serve_views[SERVE_WORKERS[1]]:
        problems.append("serial and parallel serve views differ")
    return problems


def check_trace(telemetry) -> tuple[dict, list[str]]:
    """Gate 3: the Chrome trace export is Perfetto-loadable."""
    problems: list[str] = []
    doc = telemetry.trace.to_chrome_trace()
    events = doc.get("traceEvents", [])
    if not events:
        problems.append("trace has no events")
    metadata = [e for e in events if e.get("ph") == "M"]
    spans = [e for e in events if e.get("ph") == "X"]
    if len(metadata) + len(spans) != len(events):
        problems.append("trace contains phases other than M/X")
    if not any(e.get("name") == "process_name" for e in metadata):
        problems.append("trace names no process")
    for span in spans:
        if not all(
            isinstance(span.get(key), (int, float))
            for key in ("ts", "dur", "pid", "tid")
        ):
            problems.append(f"span {span.get('name')!r} has non-numeric "
                            "ts/dur/pid/tid")
            break
    # the document must survive a JSON round-trip (what Perfetto parses)
    json.loads(json.dumps(doc))
    return {"events": len(events), "spans": len(spans)}, problems


def check_profile(telemetry) -> tuple[dict, list[str]]:
    """Gate 4: profile total == the sim.cycles.charged counter."""
    problems: list[str] = []
    charged = sum(
        instrument.value
        for name, _labels, instrument in telemetry.series()
        if name == "sim.cycles.charged"
    )
    total = telemetry.profile.total
    if total <= 0:
        problems.append("profile charged no cycles")
    if not math.isclose(total, charged, rel_tol=1e-9):
        problems.append(
            f"profile total {total!r} != charged counter {charged!r}"
        )
    return {"total_cycles": total, "charged_counter": charged}, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--duration", type=float, default=None,
                        help="campaign seconds (default 40, quick 15)")
    parser.add_argument("--attack-start", type=float, default=None,
                        help="attack onset (default 5, quick 4)")
    parser.add_argument("--repeats", type=int, default=31,
                        help="interleaved disabled/enabled timing pairs")
    parser.add_argument("--output", type=Path, default=Path("BENCH_obs.json"))
    parser.add_argument("--trace-out", type=Path, default=None,
                        dest="trace_out", metavar="FILE",
                        help="also write the enabled run's Chrome trace "
                        "(the CI sample artifact)")
    args = parser.parse_args(argv)

    duration = args.duration or (15.0 if args.quick else 40.0)
    attack_start = args.attack_start or (4.0 if args.quick else 5.0)
    serve_duration = 1.0 if args.quick else 2.0
    spec = _spec(duration, attack_start)

    problems = check_identity(duration, attack_start, serve_duration)
    if problems:
        print("obs byte-identity FAILED:")
        for problem in problems:
            print(f"  - {problem}")
    else:
        print("obs byte-identity: ok (simulator + N=1 fleet + "
              "serial/parallel serve)")

    _timed_campaign(spec, None)  # warm-up: imports, caches
    times: dict[str, list[float]] = {"disabled": [], "enabled": []}
    ratios: list[float] = []
    telemetry = None
    for pair in range(max(1, args.repeats)):
        elapsed = {}
        # alternate which side runs first, so warm-up and drift within
        # a pair do not favour one side
        for mode in (("disabled", "enabled") if pair % 2 == 0
                     else ("enabled", "disabled")):
            run_telemetry = Telemetry() if mode == "enabled" else None
            elapsed[mode] = _timed_campaign(spec, run_telemetry)
            if run_telemetry is not None:
                telemetry = run_telemetry
            times[mode].append(elapsed[mode])
        ratios.append(elapsed["enabled"] / elapsed["disabled"])
    overhead = statistics.median(ratios) - 1.0
    overhead_ok = overhead <= OVERHEAD_LIMIT
    print(f"disabled {statistics.median(times['disabled']):8.2f} s   "
          f"enabled {statistics.median(times['enabled']):8.2f} s   "
          f"overhead {overhead:+.1%} median of {len(ratios)} pairs "
          f"(limit {OVERHEAD_LIMIT:.0%})")

    trace_stats, trace_problems = check_trace(telemetry)
    profile_stats, profile_problems = check_profile(telemetry)
    for problem in trace_problems + profile_problems:
        print(f"  - {problem}")
    if not trace_problems:
        print(f"trace export: ok ({trace_stats['spans']} spans)")
    if not profile_problems:
        print(f"profile attribution: ok "
              f"({profile_stats['total_cycles']:.0f} cycles)")

    if args.trace_out is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(
            json.dumps(telemetry.trace.to_chrome_trace(), indent=2,
                       sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"sample trace written to {args.trace_out}")

    all_problems = problems + trace_problems + profile_problems
    record = {
        "benchmark": "obs_telemetry",
        "quick": args.quick,
        "params": {
            "scenario": "k8s-deepscan",
            "duration": duration,
            "attack_start": attack_start,
            "serve_duration": serve_duration,
            "repeats": args.repeats,
            "overhead_limit": OVERHEAD_LIMIT,
            "overhead_method": "median enabled/disabled ratio of "
                               "interleaved pairs",
        },
        "times_sec": times,
        "ratios": {"enabled_vs_disabled_overhead": overhead,
                   "paired": ratios},
        "identity_ok": not problems,
        "identity_problems": problems,
        "overhead_ok": overhead_ok,
        "trace": trace_stats,
        "profile": profile_stats,
        "gates_ok": not all_problems and overhead_ok,
    }
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if not overhead_ok:
        print(f"overhead gate FAILED: {overhead:+.1%} > "
              f"{OVERHEAD_LIMIT:.0%}")
    return 1 if (all_problems or not overhead_ok) else 0


if __name__ == "__main__":
    sys.exit(main())
