"""The benchmark command: run one workload, check its outputs, print its
metrics.

    python3 perfbench/run.py --workload serve-deepscan --seed 1 \\
        --seconds 15 --trace 0

Repetitions run back to back, each in a fresh interpreter
(``perfbench/child.py``), until ``--seconds`` have passed and there are
at least ``MIN_REPS`` of them.  ``--trace 0`` reports the end-to-end
metrics, with every operation timed against the host-speed probe run
just before it (``perfbench/calib.py``); ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics, the
traced/untraced loop-time ratio, and writes the first traced
repetition's spans as a Chrome trace under ``perfbench/out/``.

Every repetition's output is checked: its invariants, a sha256 digest
against ``pins.json`` at the default seed, and at any other seed
agreement with the workload's reference variant (scalar for the vec
engine, serial for the parallel runtime) and between repetitions.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations (bursts or ticks), and
``metrics``.  A set-up that fails prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from statistics import median
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT)]

from perfbench import metrics  # noqa: E402
from perfbench.stats import percentile  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: repetitions per run at least: set-up time is their median
MIN_REPS = 5

#: no repetition starts later than this into a run, so that the run
#: (with its reference check) ends well inside three minutes
DEADLINE_S = 110.0

#: a repetition still running after this long has hung (the slowest
#: legitimate one, the scalar reference campaign, takes about 13 s)
CHILD_TIMEOUT_S = 60.0

PINS = HERE / "pins.json"
TRACE_DIR = HERE / "out"


class SetupFailed(RuntimeError):
    """A repetition never reached its first operation."""


def spawn(variant: str, seed: int, trace: bool = False,
          trace_out: Path | None = None) -> dict:
    """Run one repetition in a fresh interpreter; its record, with
    ``setup_s`` from process start to the end of set-up."""
    command = [sys.executable, str(HERE / "child.py"),
               "--variant", variant, "--seed", str(seed)]
    if trace:
        command.append("--trace")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        out, err, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        err, code = f"timed out after {CHILD_TIMEOUT_S:.0f} s", None
    records = [json.loads(line) for line in out.splitlines()
               if line.startswith("{")]
    ready = next((r for r in records if "ready" in r), None)
    if ready is None:
        raise SetupFailed(f"{variant} (seed {seed}) failed during set-up "
                          f"(exit {code}):\n{err[-2000:]}")
    result = next((r for r in reversed(records) if "variant" in r), None)
    if result is None:
        result = {"planned": ready["planned"], "completed": 0,
                  "error": f"exit {code}: {err[-2000:]}"}
    result["setup_s"] = ready["ready"] - started
    return result


def rep_problems(rep: dict, expected: str | None, first: str | None) -> list[str]:
    """What is wrong with one finished repetition's output."""
    problems = list(rep.get("invariants", [])) + list(rep.get("cross_check", []))
    digest = rep.get("digest")
    if expected is not None and digest != expected:
        problems.append(f"digest {digest} != expected {expected}")
    if first is not None and digest != first:
        problems.append(f"digest {digest} differs from the first repetition")
    return problems


def account(reps: list[dict], expected: str | None) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over a run's repetitions.  A
    repetition that raised fails the operations it did not complete; one
    whose output check fails fails all of them."""
    attempted = failed = 0
    problems: list[str] = []
    first = next((r.get("digest") for r in reps if not r.get("error")), None)
    for rep in reps:
        attempted += rep["planned"]
        if rep.get("error"):
            failed += rep["planned"] - rep["completed"]
            problems.append(rep["error"].strip().splitlines()[-1])
            continue
        wrong = rep_problems(rep, expected, first)
        if wrong:
            failed += rep["planned"]
            problems += wrong
    return attempted, failed, problems


def expected_digest(name: str, seed: int) -> tuple[str | None, str, str | None]:
    """``(digest, source, problem)``: the digest every repetition must
    produce and where it came from — the pin at the default seed, else
    the reference variant's output at this seed (``None`` for a workload
    with no reference, whose repetitions then only have to agree with
    each other).  ``problem`` says why the reference gave no digest."""
    if seed == DEFAULT_SEED:
        pins = json.loads(PINS.read_text())["digests"]
        return pins[name], f"pins.json (seed {DEFAULT_SEED})", None
    reference = WORKLOADS[name].reference
    if reference is None:
        return None, "invariants and agreement between repetitions", None
    ref = spawn(reference, seed)
    source = f"{reference} at seed {seed}"
    if ref.get("error"):
        return None, source, ref["error"].strip().splitlines()[-1]
    problems = rep_problems(ref, None, None)
    if problems:
        return None, source, "; ".join(problems)
    return ref["digest"], source, None


def repeat(name: str, seed: int, seconds: float, trace: bool) -> list[tuple[dict, dict | None]]:
    """Repetitions until the run has lasted ``seconds`` and has enough of
    them; with ``trace`` each untraced one is paired with a traced one."""
    pairs: list[tuple[dict, dict | None]] = []
    begin = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - begin
        enough = len(pairs) >= (1 if trace else MIN_REPS)
        if (enough and elapsed >= seconds) or (
                pairs and elapsed + longest > DEADLINE_S):
            return pairs
        plain = spawn(name, seed)
        traced = None
        if trace:
            out = None if len(pairs) else TRACE_DIR / f"{name}-seed{seed}.trace.json"
            traced = spawn(name, seed, trace=True, trace_out=out)
        longest = max(longest, time.monotonic() - begin - elapsed)
        pairs.append((plain, traced))


def end_to_end(name: str, reps: list[dict]) -> tuple[dict, list[str]]:
    """The end-to-end metric values and the lines that explain them.
    Operation costs are host time over the probe time just before; the
    lines also give the host times themselves, which carry the host's
    load at the time of the run."""
    good = [r for r in reps if not r.get("error")]
    tail = WORKLOADS[name].tail
    cost = [op / cal for r in good for op, cal in zip(r["op_s"], r["cal_s"])]
    op_ms = [s * 1000.0 for r in good for s in r["op_s"]]
    cal_ms = [s * 1000.0 for r in good for s in r["cal_s"]]
    sim_s = sum(r["sim_s"] for r in good)
    loop_s = sum(r["loop_s"] for r in good)
    values = {
        "setup_s": median([r["setup_s"] for r in reps]),
        "sim_ms_per_cal": sim_s * 1000.0 / sum(cost) if cost else 0.0,
        "op_cost.p50": percentile(cost, 50.0) if cost else 0.0,
        "op_cost.p90": percentile(cost, 90.0) if cost else 0.0,
        "peak_rss_mb": median([r["rss_mb"] for r in good]) if good else 0.0,
    }
    serve = WORKLOADS[name].kind == "serve"
    op = "burst" if serve else "tick"
    notes = {
        "setup_s": f"median of {len(reps)} set-ups",
        "sim_ms_per_cal": f"over {len(good)} repetitions",
        "op_cost.p50": f"{op}_cost.p50 of {len(cost)} {op}s",
        "op_cost.p90": f"{op}_cost.p90 of {len(cost)} {op}s",
        "peak_rss_mb": f"median of {len(good)} repetitions",
    }
    lines = [f"  {n:<16} {values[n]:>12.4f} {u:<10} {notes[n]}"
             for n, u, _ in metrics.END_TO_END]
    if good:
        raw = [
            (f"{op}_cost.p{tail:g}", percentile(cost, tail), "cal", f"of {len(cost)} {op}s"),
            ("sim_s_per_s", sim_s / loop_s, "sim_s/s", f"over {len(good)} repetitions"),
            (f"{op}_ms.p50", percentile(op_ms, 50.0), "ms", f"of {len(op_ms)} {op}s"),
            (f"{op}_ms.p{tail:g}", percentile(op_ms, tail), "ms", f"of {len(op_ms)} {op}s"),
            ("cal_ms.p50", percentile(cal_ms, 50.0), "ms", f"probe, of {len(cal_ms)}"),
        ]
        if serve:
            pps = sum(r["extra"]["packets"] for r in good) / loop_s
            raw.append(("pkt_per_s", pps, "1/s", f"over {len(good)} repetitions"))
        lines.append("  not gated (the tail and host times move with the host's load):")
        lines += [f"  {n:<16} {v:>12.4f} {u:<10} {note}" for n, v, u, note in raw]
    return values, lines


def layer_values(pairs: list[tuple[dict, dict | None]]) -> dict:
    """Per-layer metrics: the median over traced repetitions."""
    plain = [p for p, _ in pairs if not p.get("error")]
    traced = [t for _, t in pairs if t is not None and not t.get("error")]
    if not plain or not traced:
        return {name: 0.0 for name in metrics.per_layer_metrics()}
    overhead = (median([t["loop_s"] for t in traced])
                / median([p["loop_s"] for p in plain]))
    runs = [metrics.per_layer(t["totals"], t["stats"], t["masks_total"],
                              overhead) for t in traced]
    return {name: median([run[name] for run in runs]) for name in runs[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    name, seed, trace = args.workload, args.seed, bool(args.trace)
    try:
        pairs = repeat(name, seed, args.seconds, trace)
        expected, source, broken = expected_digest(name, seed)
    except SetupFailed as exc:
        print(str(exc), file=sys.stderr)
        return 2
    plain = [p for p, _ in pairs]
    reps = plain + [t for _, t in pairs if t is not None]
    attempted, failed, problems = account(reps, expected)
    if broken is not None:
        # without its reference the output cannot be confirmed
        failed = attempted
        problems.insert(0, f"reference failed: {broken}")
    kind = "bursts" if WORKLOADS[name].kind == "serve" else "ticks"
    print(f"perfbench {name} seed={seed} trace={int(trace)}: "
          f"{len(reps)} repetitions, {attempted} {kind} attempted")
    if trace:
        units = {n: u for n, (u, _) in metrics.per_layer_metrics().items()}
        values = layer_values(pairs)
        for metric, value in values.items():
            print(f"  {metric:<36} {value:>14.6g} {units[metric]}")
        print(f"  chrome trace: {TRACE_DIR / f'{name}-seed{seed}.trace.json'}")
    else:
        units = {n: u for n, u, _ in metrics.END_TO_END}
        values, lines = end_to_end(name, plain)
        print("\n".join(lines))
    print(f"  {'failed_ratio':<16} {failed / attempted:>12.4f} {'ratio':<10} "
          f"{failed}/{attempted} {kind}")
    print(f"  output check: {source}: "
          + ("ok" if not problems else "; ".join(problems[:5])))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
