"""TelemetryWindows: attribution, rebinning, merge determinism, and
service passivity with telemetry attached."""

import json

import pytest

from repro.obs.telemetry import TelemetryWindows, merge_telemetry
from repro.service.server import ServiceConfig, run_service


class TestRecording:
    def test_counts_land_in_the_right_window(self):
        tel = TelemetryWindows(window_cycles=100)
        tel.count(0, "acked")
        tel.count(99, "acked")
        tel.count(100, "acked")
        tel.count(250, "acked", 3)
        assert tel.series("acked") == [2, 1, 3]
        assert tel.total("acked") == 6

    def test_sample_counts_exactly_once_at_window_boundary(self):
        # A request spanning two windows is attributed to the window of
        # its *completion* cycle — once, not once per window touched.
        tel = TelemetryWindows(window_cycles=100)
        submitted, completed = 50, 150  # spans the boundary at 100
        tel.count(completed, "acked")
        tel.record(completed, "latency", completed - submitted)
        assert tel.series("acked") == [0, 1]
        assert tel.window_hist(0, "latency") is None
        hist = tel.window_hist(1, "latency")
        assert hist is not None and hist.count == 1
        assert tel.merged_hist("latency").count == 1

    def test_boundary_cycle_belongs_to_the_next_window(self):
        tel = TelemetryWindows(window_cycles=64)
        assert tel.window_index(63) == 0
        assert tel.window_index(64) == 1
        tel.count(64, "acked")
        assert tel.series("acked") == [0, 1]

    def test_negative_cycles_clamp_to_window_zero(self):
        tel = TelemetryWindows(window_cycles=64)
        tel.count(-5, "acked")
        assert tel.series("acked") == [1]

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            TelemetryWindows(window_cycles=0)


class TestRebin:
    def test_rebin_folds_adjacent_windows(self):
        tel = TelemetryWindows(window_cycles=10)
        for cycle in (0, 11, 25, 39, 45):
            tel.count(cycle, "acked")
            tel.record(cycle, "latency", cycle + 1)
        coarse = tel.rebinned(2)
        assert coarse.window_cycles == 20
        assert coarse.series("acked") == [2, 2, 1]
        assert coarse.total("acked") == tel.total("acked")
        assert coarse.merged_hist("latency").count == 5

    def test_rebin_factor_one_is_identity(self):
        tel = TelemetryWindows(window_cycles=10)
        tel.count(5, "acked")
        tel.record(25, "latency", 7)
        same = tel.rebinned(1)
        assert json.dumps(same.to_dict(), sort_keys=True) == json.dumps(
            tel.to_dict(), sort_keys=True
        )

    def test_rebin_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            TelemetryWindows().rebinned(0)


class TestMergeAndSerialise:
    def _fill(self, tel, base, n):
        for i in range(n):
            cycle = base + i * 37
            tel.count(cycle, "acked")
            tel.record(cycle, "latency", 10 + i)

    def test_split_merge_byte_identical_to_serial(self):
        # The --jobs contract: per-worker registries merged in
        # submission order serialise identically to one registry that
        # recorded everything.
        a, b = TelemetryWindows(64), TelemetryWindows(64)
        serial = TelemetryWindows(64)
        self._fill(a, 0, 20)
        self._fill(serial, 0, 20)
        self._fill(b, 300, 20)
        self._fill(serial, 300, 20)
        merged = merge_telemetry([a, b])
        assert json.dumps(merged.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )

    def test_three_way_merge_with_misaligned_final_windows(self):
        # The sustained-campaign contract: three population registries
        # whose runs end mid-window at three different cycles still
        # fold, in submission order, to the registry of one serial run
        # — the merge aligns on window index, not on run length.
        parts = [TelemetryWindows(64) for _ in range(3)]
        serial = TelemetryWindows(64)
        spans = [(0, 23), (40, 31), (100, 17)]  # distinct partial tails
        for tel, (base, n) in zip(parts, spans):
            self._fill(tel, base, n)
            self._fill(serial, base, n)
        merged = merge_telemetry(parts)
        assert json.dumps(merged.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )
        # The partial final windows really are misaligned.
        assert len({tel.num_windows for tel in parts}) == 3

    def test_merge_then_rebin_equals_rebin_of_serial(self):
        # The analysis pipeline rebins the merged registry; folding
        # order must not matter there either.
        parts = [TelemetryWindows(32) for _ in range(3)]
        serial = TelemetryWindows(32)
        for i, tel in enumerate(parts):
            self._fill(tel, i * 95, 12 + i)
            self._fill(serial, i * 95, 12 + i)
        merged = merge_telemetry(parts).rebinned(4)
        assert json.dumps(merged.to_dict(), sort_keys=True) == json.dumps(
            serial.rebinned(4).to_dict(), sort_keys=True
        )

    def test_merge_rejects_mismatched_widths(self):
        with pytest.raises(ValueError):
            TelemetryWindows(64).merge(TelemetryWindows(128))

    def test_round_trip(self):
        tel = TelemetryWindows(window_cycles=32)
        self._fill(tel, 0, 15)
        back = TelemetryWindows.from_dict(tel.to_dict())
        assert back.window_cycles == tel.window_cycles
        assert back.series("acked") == tel.series("acked")
        assert json.dumps(back.to_dict(), sort_keys=True) == json.dumps(
            tel.to_dict(), sort_keys=True
        )

    def test_throughput_per_kcycle(self):
        tel = TelemetryWindows(window_cycles=1000)
        for cycle in range(0, 3000, 100):  # 10 acks per window, 3 windows
            tel.count(cycle, "acked")
        assert tel.throughput_per_kcycle("acked") == pytest.approx(10.0)
        assert tel.throughput_per_kcycle("acked", [0]) == pytest.approx(10.0)

    def test_format_and_rows_cover_occupied_range(self):
        tel = TelemetryWindows(window_cycles=50)
        tel.count(10, "acked")
        tel.record(10, "latency", 5)
        tel.count(160, "shed")
        rows = tel.rows()
        assert [r["window"] for r in rows] == [0, 1, 2, 3]
        assert rows[0]["counts"] == {"acked": 1}
        assert rows[3]["counts"] == {"shed": 1}
        text = tel.format()
        assert "windows (50 cycles each)" in text


class TestServiceTelemetryPassivity:
    KW = dict(
        workload="hashtable", scheme="SLPMT", num_clients=3,
        requests_per_client=15, value_bytes=32, seed=23,
    )

    def test_bit_identical_with_telemetry(self):
        bare = run_service(ServiceConfig(**self.KW))
        telemetry = TelemetryWindows()
        observed = run_service(ServiceConfig(**self.KW), telemetry=telemetry)
        assert bare.cycles == observed.cycles
        assert bare.stats.as_dict() == observed.stats.as_dict()
        assert bare.pm_bytes == observed.pm_bytes
        # And the registry actually saw the run.
        assert telemetry.total("acked") == observed.acked

    def test_telemetry_accounts_every_request(self):
        telemetry = TelemetryWindows()
        res = run_service(ServiceConfig(**self.KW), telemetry=telemetry)
        assert telemetry.total("acked") == res.acked
        assert telemetry.total("shed") == res.shed
        assert telemetry.total("batches") == res.batches
        assert telemetry.merged_hist("latency").count == res.acked
