"""Tests for trace export/import."""

import pytest

from repro.kpn.trace import EventRecord, TraceRecorder
from repro.kpn.tracefile import (
    channel_timestamps,
    load_recorder,
    load_timestamps,
    recorder_to_dict,
    save_recorder,
    save_timestamps,
)


@pytest.fixture
def recorder():
    recorder = TraceRecorder(record_events=True)
    trace = recorder.channel("ch")
    trace.max_fill = 2
    trace.events += [EventRecord(1.0, "write", 1, 0),
                     EventRecord(2.5, "write", 2, 1),
                     EventRecord(3.0, "read", 1, 0),
                     EventRecord(3.5, "drop", 2, 1)]
    return recorder


class TestRoundTrip:
    def test_recorder_json_roundtrip(self, recorder, tmp_path):
        path = tmp_path / "trace.json"
        save_recorder(recorder, str(path))
        loaded = load_recorder(str(path))
        assert loaded.names() == ["ch"]
        original = recorder["ch"].events
        restored = loaded["ch"].events
        assert [(e.time, e.kind, e.seqno, e.interface)
                for e in original] == [
            (e.time, e.kind, e.seqno, e.interface) for e in restored
        ]
        assert loaded["ch"].max_fill == recorder["ch"].max_fill

    def test_roundtrip_restores_counters(self, recorder, tmp_path):
        """The high-water mark and every event come back as saved —
        including drops and non-zero interfaces."""
        path = tmp_path / "trace.json"
        save_recorder(recorder, str(path))
        loaded = load_recorder(str(path))
        original = recorder["ch"]
        restored = loaded["ch"]
        assert restored.max_fill == original.max_fill == 2
        assert restored.events == original.events
        # Drop events keep their interface index through the round trip.
        drops = [e for e in restored.events if e.kind == "drop"]
        assert [(e.seqno, e.interface) for e in drops] == [(2, 1)]

    def test_version_check(self, recorder, tmp_path):
        path = tmp_path / "trace.json"
        data = recorder_to_dict(recorder)
        data["version"] = 999
        path.write_text(__import__("json").dumps(data))
        with pytest.raises(ValueError) as excinfo:
            load_recorder(str(path))
        # The error names the offending file and both versions.
        assert str(path) in str(excinfo.value)
        assert "999" in str(excinfo.value)

    def test_timestamp_file_roundtrip(self, tmp_path):
        path = tmp_path / "stamps.txt"
        values = [0.0, 10.125, 20.25]
        save_timestamps(values, str(path))
        assert load_timestamps(str(path)) == values

    def test_timestamp_file_feeds_calibration(self, tmp_path):
        from repro.rtc.calibration import fit_pjd
        path = tmp_path / "stamps.txt"
        save_timestamps([i * 5.0 for i in range(40)], str(path))
        model = fit_pjd(load_timestamps(str(path)))
        assert model.period == pytest.approx(5.0)


class TestChannelTimestamps:
    def test_kind_filter(self, recorder):
        assert channel_timestamps(recorder["ch"], "write") == [1.0, 2.5]
        assert channel_timestamps(recorder["ch"], "read") == [3.0]
        assert channel_timestamps(recorder["ch"], "drop") == [3.5]

    def test_interface_filter(self, recorder):
        assert channel_timestamps(recorder["ch"], "write",
                                  interface=1) == [2.5]


class TestCliTraceCommand:
    def test_export_and_recalibrate(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "trace.txt"
        code = main(["trace", str(out), "--app", "adpcm",
                     "--tokens", "60"])
        assert code == 0
        assert "timestamps" in capsys.readouterr().out
        code = main(["calibrate", str(out)])
        assert code == 0
        assert "fitted PJD" in capsys.readouterr().out

    def test_json_export(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "trace.json"
        code = main(["trace", str(out), "--app", "adpcm",
                     "--tokens", "40", "--json"])
        assert code == 0
        loaded = load_recorder(str(out))
        assert "replicator.R1" in loaded.names()

    def test_unknown_channel_errors(self, tmp_path):
        from repro.cli import main
        out = tmp_path / "trace.txt"
        code = main(["trace", str(out), "--app", "adpcm",
                     "--tokens", "40", "--channel", "nope"])
        assert code == 2
