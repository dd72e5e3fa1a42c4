"""Tests for the CI sweep smoke check."""

from repro.tools import sweep_smoke

SMALL = ["--jobs", "1", "--runs", "1", "--warmup", "10"]


def test_differing_cached_replay_fails(monkeypatch, capsys):
    """The serial and warm runs agree, so only the cached replay's
    comparison can catch a cached replay that differs."""
    real = sweep_smoke._table2_json
    calls = []

    def tampered(*args, **kwargs):
        calls.append(None)
        text = real(*args, **kwargs)
        # Calls run serial, parallel, warm, then the cached replay.
        return text + " " if len(calls) == 4 else text

    monkeypatch.setattr(sweep_smoke, "_table2_json", tampered)
    assert sweep_smoke.main(SMALL) == 1
    assert len(calls) == 4
    assert "FAIL: cached replay JSON differs" in capsys.readouterr().out
