"""The serve loop: determinism, snapshots, graceful shutdown.

Pins the service-level contracts: the synthetic feed is byte-
deterministic, serial and parallel serve runs produce identical
deterministic views, SIGINT/SIGTERM drain the in-flight burst and
flush a final snapshot (with the previous handlers restored), and a
killed worker surfaces as a loud crash, not a hang.
"""

import json
import os
import signal

import pytest

from repro.runtime.parallel import WorkerCrashError
from repro.runtime.service import (
    ServeService,
    SyntheticSource,
    build_service,
)
from repro.scenario.presets import SCENARIOS
from repro.scenario.spec import DefenseUse, ScenarioSpec


def _spec(**overrides):
    return SCENARIOS.get("k8s-serve").evolve(**overrides)


def _service(workers=0, shards=2, **kwargs):
    kwargs.setdefault("duration", 1.0)
    kwargs.setdefault("rate_pps", 2560.0)
    kwargs.setdefault("report_interval", 0.5)
    return build_service(_spec(shards=shards), workers=workers, **kwargs)


class TestSyntheticSource:
    def _keys(self):
        from repro.scenario.session import Session

        session = Session(_spec())
        return session.surface.covert_keys(
            session.dimensions, session.target, session.space
        )

    def test_deterministic(self):
        keys = self._keys()
        a = [
            (now, [k.packed for k in burst])
            for now, burst in SyntheticSource(
                keys, rate_pps=1000, duration=1.0
            ).batches()
        ]
        b = [
            (now, [k.packed for k in burst])
            for now, burst in SyntheticSource(
                keys, rate_pps=1000, duration=1.0
            ).batches()
        ]
        assert a == b
        assert sum(len(burst) for _, burst in a) == 1000

    def test_laps_cycle_the_key_set(self):
        keys = self._keys()
        total = sum(
            len(burst)
            for _, burst in SyntheticSource(
                keys, rate_pps=len(keys) * 2, duration=1.0
            ).batches()
        )
        assert total == len(keys) * 2  # exactly two laps

    def test_max_packets_caps_the_stream(self):
        keys = self._keys()
        bursts = list(
            SyntheticSource(
                keys, rate_pps=10_000, duration=5.0, max_packets=123
            ).batches()
        )
        assert sum(len(b) for _, b in bursts) == 123

    def test_rejects_bad_parameters(self):
        keys = self._keys()
        with pytest.raises(ValueError):
            SyntheticSource([], rate_pps=100, duration=1.0)
        with pytest.raises(ValueError):
            SyntheticSource(keys, rate_pps=0, duration=1.0)
        with pytest.raises(ValueError):
            SyntheticSource(keys, rate_pps=100, duration=0)


class TestEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_serial_and_parallel_views_identical(self, shards):
        serial = _service(workers=0, shards=shards).run()
        parallel = _service(workers=shards, shards=shards).run()
        assert json.dumps(
            serial.deterministic_view(), sort_keys=True
        ) == json.dumps(parallel.deterministic_view(), sort_keys=True)
        assert serial.packets == parallel.packets > 0

    def test_repeated_serial_runs_identical(self):
        a = _service().run()
        b = _service().run()
        assert a.deterministic_view() == b.deterministic_view()

    def test_snapshot_cadence_follows_simulated_time(self):
        report = _service(duration=2.0, report_interval=0.5).run()
        times = [s["state"]["time"] for s in report.snapshots]
        # the first snapshot lands one interval after the first burst
        # (t=0.1+0.5), then every 0.5 simulated seconds; the end-of-
        # stream state is the final snapshot, not a periodic one
        assert len(times) == 3
        assert times == sorted(times)
        assert times[0] == pytest.approx(0.6)
        assert report.final["state"]["time"] == pytest.approx(2.0)

    def test_detector_trips_on_mask_explosion(self):
        report = _service(detect_threshold=16).run()
        assert report.final["detector"]["alert"]
        assert report.final["state"]["total_mask_count"] == 512


class _StopAfter:
    """Source wrapper that raises a signal (or calls a hook) just
    before yielding burst N — the signal lands mid-loop, exactly like
    an operator's Ctrl-C."""

    def __init__(self, inner, after, action):
        self.inner = inner
        self.after = after
        self.action = action

    def describe(self):
        return self.inner.describe()

    def batches(self):
        for i, item in enumerate(self.inner.batches()):
            if i == self.after:
                self.action()
            yield item


class TestGracefulShutdown:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_drains_and_reports(self, signum):
        service = _service(duration=5.0)
        service.source = _StopAfter(
            service.source, 3, lambda: os.kill(os.getpid(), signum)
        )
        report = service.run()
        assert report.stopped_by == f"signal:{signal.Signals(signum).name}"
        # the in-flight burst was finished, then the final snapshot
        # flushed at its burst boundary — not a torn stream
        assert report.batches == 4
        assert report.final["state"]["packets"] == report.packets > 0

    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGINT)
        service = _service(duration=0.3)
        seen = {}

        def check():
            seen["during"] = signal.getsignal(signal.SIGINT)

        service.source = _StopAfter(service.source, 1, check)
        service.run()
        assert seen["during"] == service._handle_signal
        assert signal.getsignal(signal.SIGINT) == before

    def test_request_stop(self):
        service = _service(duration=5.0)
        service.request_stop("operator")
        report = service.run()
        assert report.stopped_by == "operator"
        assert report.batches == 1  # stopped right after the first burst

    def test_workers_joined_after_run(self):
        service = _service(workers=2)
        datapath = service.datapath
        service.run()
        assert all(not p.is_alive() for p in datapath._procs)

    def test_killed_worker_is_loud_and_cleaned_up(self):
        service = _service(workers=2, duration=5.0)
        datapath = service.datapath

        def kill_worker():
            victim = datapath._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10.0)

        service.source = _StopAfter(service.source, 3, kill_worker)
        with pytest.raises(WorkerCrashError, match="shard worker 0"):
            service.run()
        # the crash still tore the whole runtime down: no orphans
        assert all(not p.is_alive() for p in datapath._procs)


class TestBuildService:
    def test_defended_specs_rejected(self):
        with pytest.raises(ValueError, match="defenses"):
            build_service(_spec(defenses=(DefenseUse("mask-limit"),)))

    def test_rebalancing_specs_rejected(self):
        with pytest.raises(ValueError, match="auto-lb"):
            build_service(_spec(rebalance_interval=5.0))

    def test_spec_shard_count_drives_serial_runtime(self):
        service = _service(workers=0, shards=4)
        assert len(service.datapath.shards) == 4
        service.run()

    def test_workers_drive_parallel_shard_count(self):
        service = _service(workers=4)
        assert service.datapath.shard_count == 4
        service.run()

    def test_scenario_spec_by_name(self):
        spec = SCENARIOS.get("k8s-serve")
        assert spec.profile == "kernel-noemc"
        assert spec.attack_start == 0.0


class TestPcapIngest:
    """Bad captures become counted, reported errors, never a traceback."""

    def _short_frame(self, path):
        from repro.net.pcap import PcapWriter

        with PcapWriter(path) as writer:
            writer.write(b"\x00" * 10, timestamp=0.5)
        return path

    def _cut_short(self, path):
        from repro.net.pcap import PcapWriter

        with PcapWriter(path) as writer:
            writer.write(b"\x00" * 60, timestamp=0.5)
        data = path.read_bytes()
        path.write_bytes(data[:-20])  # the record ends mid-packet
        return path

    def _run(self, pcap, telemetry=None):
        service = build_service(_spec(shards=2), pcap=pcap,
                                telemetry=telemetry)
        return service.run()

    def test_malformed_frame_is_counted_as_a_drop(self, tmp_path):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        report = self._run(self._short_frame(tmp_path / "short.pcap"),
                           telemetry)
        assert report.stopped_by == "end-of-stream"
        assert report.malformed == {"short-ethernet": 1}
        assert report.packets == 0
        assert report.to_dict()["malformed"] == {"short-ethernet": 1}
        assert "1 frames dropped (short-ethernet: 1)" in report.render()
        counters = {
            (name, labels): instrument.value
            for name, labels, instrument in telemetry.series()
            if name == "serve.ingest.malformed"
        }
        assert counters == {
            ("serve.ingest.malformed", (("reason", "short-ethernet"),)): 1
        }

    def test_truncated_capture_flushes_a_final_snapshot(self, tmp_path):
        report = self._run(self._cut_short(tmp_path / "cut.pcap"))
        assert report.stopped_by == "input:truncated"
        assert report.malformed == {}
        assert report.packets == 0
        assert report.final["state"]["packets"] == 0

    def test_cli_exits_cleanly_on_both(self, tmp_path, capsys):
        from repro.cli import main

        for pcap, stopped in (
            (self._short_frame(tmp_path / "short.pcap"), "end-of-stream"),
            (self._cut_short(tmp_path / "cut.pcap"), "input:truncated"),
        ):
            assert main(["serve", "--pcap", str(pcap)]) == 0
            assert f"serve finished: {stopped}" in capsys.readouterr().out
