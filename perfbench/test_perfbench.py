"""Fast tests of the benchmark's own machinery.  Workloads run here only
shortened (a few simulated seconds, or a campaign cut just past its
install ticks), never at benchmark length."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import metrics, spans, stats, workloads
from perfbench.child import run_once
from perfbench.run import account

ROOT = Path(__file__).resolve().parent.parent

#: a campaign cut here has run its install ticks (attack starts at 30 s)
SHORT_CAMPAIGN = 33.0
SHORT_SERVE = 2.0


# -- spans and self time -----------------------------------------------------


class _Toy:
    def outer(self, keys):
        return [self.inner(keys[:1]), self.inner(keys)]

    def inner(self, keys):
        return len(keys)


def _ticking_clock():
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0]
    return clock


TOY = (
    spans.Boundary("toy.outer", __name__, "_Toy", "outer", "keys", "arg"),
    spans.Boundary("toy.inner", __name__, "_Toy", "inner", "keys", "arg"),
)


def test_self_time_subtracts_what_children_cover():
    recorded = [
        ["a", 0.0, 10.0, -1, 0, 0],
        ["b", 1.0, 3.0, 0, 0, 4],
        ["c", 4.0, 8.0, 0, 0, 0],
        ["b", 5.0, 6.0, 2, 0, 3],
    ]
    totals = spans.layer_totals(recorded)
    assert totals["a"]["self_s"] == pytest.approx(4.0)
    assert totals["c"]["self_s"] == pytest.approx(3.0)
    assert totals["b"]["calls"] == 2
    assert totals["b"]["count"] == 7
    assert totals["b"]["self_s"] == pytest.approx(3.0)


def test_wrappers_record_nested_calls_with_parents_and_counts():
    recorder = spans.SpanRecorder(clock=_ticking_clock())
    recorder.op = 5
    with spans.installed(recorder, TOY):
        assert _Toy().outer([1, 2, 3]) == [1, 3]
    outer, first, second = recorder.spans
    assert [s[spans.NAME] for s in recorder.spans] == [
        "toy.outer", "toy.inner", "toy.inner"]
    assert first[spans.PARENT] == second[spans.PARENT] == 0
    assert {s[spans.OP] for s in recorder.spans} == {5}
    totals = spans.layer_totals(recorder.spans)
    # outer spans ticks 1..6, its children 2..3 and 4..5
    assert totals["toy.outer"]["self_s"] == pytest.approx(3.0)
    assert totals["toy.inner"] == {"calls": 2, "count": 4, "self_s": 2.0}


def test_originals_restored_after_tracing_even_on_error():
    owners = [spans._owner(b) for b in spans.BOUNDARIES]
    before = [vars(o)[b.attr] for o, b in zip(owners, spans.BOUNDARIES)]
    with pytest.raises(RuntimeError):
        with spans.installed(spans.SpanRecorder()):
            assert vars(owners[0])[spans.BOUNDARIES[0].attr] is not before[0]
            raise RuntimeError("boom")
    after = [vars(o)[b.attr] for o, b in zip(owners, spans.BOUNDARIES)]
    assert all(a is b for a, b in zip(after, before))


def test_chrome_trace_keeps_every_span(tmp_path):
    result = run_once("serve-deepscan", 0, trace=True, duration=SHORT_SERVE,
                      trace_out=tmp_path / "t.json")
    document = json.loads((tmp_path / "t.json").read_text())
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == result["spans"]
    assert document["otherData"]["clock"] == "host-seconds"


# -- percentiles ---------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(99) is None
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(9999) == 99.0
    assert stats.tail_percentile(10000) == 99.9


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([4, 1, 3, 2], 50.0) == 2.5
    assert stats.percentile(list(range(101)), 90.0) == 90.0


@pytest.mark.parametrize("variant,duration", [
    ("serve-deepscan", SHORT_SERVE),
    ("campaign-deepscan-vec", 3.0),
])
def test_every_operation_is_timed_with_its_probe(variant, duration):
    rep = run_once(variant, 0, duration=duration)
    assert len(rep["op_s"]) == len(rep["cal_s"]) == rep["planned"]
    assert min(rep["cal_s"]) > 0.0
    assert rep["loop_s"] == pytest.approx(sum(rep["op_s"]))


# -- failed operations ---------------------------------------------------------


def _rep(digest="d", planned=10, completed=10, error=None):
    return {"planned": planned, "completed": completed, "error": error,
            "digest": digest, "invariants": []}


def test_digest_mismatch_fails_every_operation_of_its_repetition():
    attempted, failed, problems = account([_rep("pin"), _rep("other")], "pin")
    assert (attempted, failed) == (20, 10)
    assert problems


def test_repetitions_that_disagree_fail_without_a_pin():
    assert account([_rep("x"), _rep("x")], None)[1] == 0
    assert account([_rep("x"), _rep("y")], None)[1] == 10


def test_raising_run_fails_its_remaining_operations(monkeypatch):
    from repro.perf.simulator import DataplaneSimulator

    step = DataplaneSimulator.step

    def failing_step(self):
        if self.t >= 2.0:
            raise RuntimeError("injected failure")
        return step(self)

    monkeypatch.setattr(DataplaneSimulator, "step", failing_step)
    rep = run_once("campaign-calico", 0, duration=5.0)
    assert (rep["planned"], rep["completed"]) == (5, 2)
    assert "injected failure" in rep["error"]
    attempted, failed, _ = account([rep], None)
    assert (attempted, failed) == (5, 3)


# -- seeds and references ------------------------------------------------------


def test_seed_permutation_is_deterministic():
    keys = list(range(100))
    assert workloads.permuted(keys, workloads.DEFAULT_SEED) == keys
    assert workloads.permuted(keys, 7) == workloads.permuted(keys, 7)
    assert workloads.permuted(keys, 7) != workloads.permuted(keys, 11)
    assert sorted(workloads.permuted(keys, 7)) == keys


def test_seed_moves_the_inputs_the_program_sees():
    def digest(seed):
        rep = run_once("serve-deepscan", seed, duration=SHORT_SERVE)
        assert rep["invariants"] == []
        return rep["digest"]

    assert digest(3) == digest(3)
    assert digest(3) != digest(workloads.DEFAULT_SEED)


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 9])
def test_vec_campaign_matches_its_scalar_reference(seed):
    vec = run_once("campaign-deepscan-vec", seed, duration=SHORT_CAMPAIGN)
    scalar = run_once("campaign-deepscan-scalar", seed,
                      duration=SHORT_CAMPAIGN)
    assert vec["invariants"] == scalar["invariants"] == []
    assert vec["digest"] == scalar["digest"]


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 9])
def test_parallel_serve_matches_its_serial_reference(seed):
    parallel = run_once("serve-parallel2", seed, duration=SHORT_SERVE)
    serial = run_once("serve-serial2", seed, duration=SHORT_SERVE)
    assert parallel["invariants"] == serial["invariants"] == []
    assert parallel["digest"] == serial["digest"]


@pytest.mark.parametrize("variant,duration", [
    ("serve-deepscan", SHORT_SERVE),
    ("campaign-deepscan-vec", SHORT_CAMPAIGN),
])
def test_traced_counts_match_the_program_counters(variant, duration):
    rep = run_once(variant, 4, trace=True, duration=duration)
    assert rep["error"] is None
    assert rep["cross_check"] == []
    values = metrics.per_layer(rep["totals"], rep["stats"],
                               rep["masks_total"], 1.0)
    assert set(values) == set(metrics.per_layer_metrics())
    if variant == "campaign-deepscan-vec":
        # the vec lookup's small bursts reach the scalar scan via super()
        assert values["vec.tss.scalar_fallback.calls"] > 0
        assert values["vec.tss.lookup_batch.keys"] == values["ovs.stats.packets"]


# -- the command and its records -----------------------------------------------


def test_benchmark_json_lists_what_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == metrics.per_layer_metrics()
    for entry in bench["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].reason
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    assert pins["seed"] == workloads.DEFAULT_SEED
    assert set(pins["digests"]) == set(workloads.WORKLOADS)


def test_runner_without_the_program_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-deepscan",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
