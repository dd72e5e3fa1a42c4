"""Run-ledger tests: writing, replay, and the corruption-recovery suite.

The recovery policy mirrors the exec result cache
(``tests/exec/test_cache.py``): nothing a dying or foreign writer can
leave behind may crash the replay — every corruption degrades to a
warning plus a partial replay.
"""

import json

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LedgerWriter,
    build_status,
    merged_snapshot,
    read_ledger,
    read_status,
)
from repro.obs.metrics import MetricsRegistry


class FakeDetection:
    def __init__(self, time, site="replicator", mechanism="overflow"):
        self.time = time
        self.site = site
        self.mechanism = mechanism


class FakeResult:
    """The TaskResult surface task_finished() reads."""

    def __init__(self, ok=True, metrics=None, detections=(),
                 injected_at=None, wall_s=0.01, worker=None):
        self.ok = ok
        self.error = None if ok else "boom"
        self.wall_time_s = wall_s
        self.worker = worker or {"pid": 1234, "host": "test"}
        self.injected_at = injected_at
        self.detections = list(detections)
        self.metrics = metrics


def _metrics(latency=10.0, events=100):
    metrics = MetricsRegistry()
    metrics.counter("sim.events").inc(events)
    metrics.histogram("detect.latency_ms").observe(latency)
    return metrics.snapshot()


def _write_run(path, tasks=3):
    with LedgerWriter(path) as ledger:
        ledger.sweep_start(tasks, jobs=2)
        for index in range(tasks):
            ledger.task_submitted(index, "duplicated", digest=f"d{index}")
        for index in range(tasks):
            ledger.task_finished(
                index,
                FakeResult(
                    metrics=_metrics(latency=10.0 * (index + 1)),
                    detections=[FakeDetection(50.0 + index)],
                    injected_at=40.0,
                ),
            )
        ledger.sweep_end({"tasks": tasks, "executed": tasks,
                          "cache_hits": 0, "errors": 0, "jobs": 2,
                          "wall_time_s": 0.5})
    return path


class TestWriter:
    def test_header_first_and_schema(self, tmp_path):
        path = _write_run(tmp_path / "run.ledger")
        replay = read_ledger(path)
        assert replay.ok, replay.warnings
        assert replay.records[0]["type"] == "header"
        assert replay.records[0]["schema"] == LEDGER_SCHEMA

    def test_one_json_object_per_line(self, tmp_path):
        path = _write_run(tmp_path / "run.ledger")
        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)

    def test_appending_writer_skips_second_header(self, tmp_path):
        path = tmp_path / "run.ledger"
        with LedgerWriter(path) as first:
            first.sweep_start(1, jobs=1)
        with LedgerWriter(path) as second:
            second.sweep_start(1, jobs=1)
        replay = read_ledger(path)
        assert len(replay.by_type("header")) == 1
        assert len(replay.by_type("sweep-start")) == 2

    def test_emit_after_close_is_noop(self, tmp_path):
        ledger = LedgerWriter(tmp_path / "run.ledger")
        ledger.close()
        ledger.emit("sweep-start", tasks=1, jobs=1)
        assert len(read_ledger(ledger.path).records) == 1  # header only

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "run.ledger"
        with LedgerWriter(path):
            pass
        assert path.exists()

    def test_hot_records_batch_until_flush(self, tmp_path):
        # Task records buffer (syscall budget: the obs-overhead bench);
        # boundary records and explicit flush() write through.
        path = tmp_path / "run.ledger"
        ledger = LedgerWriter(path, flush_interval=3600.0)
        ledger.sweep_start(2, jobs=1)  # boundary: written through
        on_disk = len(path.read_text().splitlines())
        assert on_disk == 2  # header + sweep-start
        ledger.task_finished(0, FakeResult(metrics=_metrics()))
        assert len(path.read_text().splitlines()) == on_disk  # buffered
        ledger.flush()
        assert len(path.read_text().splitlines()) == on_disk + 1
        ledger.task_finished(1, FakeResult(metrics=_metrics()))
        ledger.sweep_end({"tasks": 2})  # boundary drains the buffer
        assert len(read_ledger(path).by_type("task-finished")) == 2
        ledger.close()

    def test_zero_flush_interval_writes_through(self, tmp_path):
        path = tmp_path / "run.ledger"
        ledger = LedgerWriter(path, flush_interval=0.0)
        ledger.task_finished(0, FakeResult(metrics=_metrics()))
        assert len(read_ledger(path).by_type("task-finished")) == 1
        ledger.close()

    def test_close_drains_buffered_records(self, tmp_path):
        path = tmp_path / "run.ledger"
        ledger = LedgerWriter(path, flush_interval=3600.0)
        ledger.task_finished(0, FakeResult(metrics=_metrics()))
        ledger.close()
        assert len(read_ledger(path).by_type("task-finished")) == 1


class TestCorruptionRecovery:
    def test_truncated_final_line(self, tmp_path):
        path = _write_run(tmp_path / "run.ledger")
        whole = read_ledger(path)
        data = path.read_bytes()
        path.write_bytes(data[:-20])  # writer died mid-record
        replay = read_ledger(path)
        assert not replay.ok
        assert any("truncated" in w for w in replay.warnings)
        assert len(replay.records) == len(whole.records) - 1

    def test_undecodable_interior_line(self, tmp_path):
        path = _write_run(tmp_path / "run.ledger")
        lines = path.read_text().splitlines()
        lines.insert(2, "{not json at all")
        path.write_text("\n".join(lines) + "\n")
        replay = read_ledger(path)
        assert any("undecodable" in w for w in replay.warnings)
        # Everything around the bad line still replays.
        assert replay.by_type("sweep-end")

    def test_schema_version_mismatch_warns_and_replays(self, tmp_path):
        path = _write_run(tmp_path / "run.ledger")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = "repro.ledger/99"
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        replay = read_ledger(path)
        assert any("schema" in w for w in replay.warnings)
        assert len(replay.by_type("task-finished")) == 3

    def test_missing_header(self, tmp_path):
        path = _write_run(tmp_path / "run.ledger")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        replay = read_ledger(path)
        assert any("no header" in w for w in replay.warnings)
        assert replay.by_type("sweep-end")

    def test_unknown_record_type_skipped(self, tmp_path):
        path = _write_run(tmp_path / "run.ledger")
        with open(path, "a") as handle:
            handle.write(json.dumps({"type": "from-the-future"}) + "\n")
        replay = read_ledger(path)
        assert any("unknown record type" in w for w in replay.warnings)
        assert all(r["type"] != "from-the-future" for r in replay.records)

    def test_missing_file(self, tmp_path):
        replay = read_ledger(tmp_path / "absent.ledger")
        assert replay.records == []
        assert any("unreadable" in w for w in replay.warnings)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.ledger"
        path.touch()
        replay = read_ledger(path)
        assert replay.records == []
        assert any("empty" in w for w in replay.warnings)

    def test_interleaved_writers(self, tmp_path):
        # Two writers appending whole lines to one ledger (the campaign
        # + nested sweep case): every record of both replays, one header.
        path = tmp_path / "shared.ledger"
        first = LedgerWriter(path)
        second = LedgerWriter(path)
        first.sweep_start(2, jobs=1)
        second.sweep_start(3, jobs=1)
        first.task_finished(0, FakeResult(metrics=_metrics(latency=5.0)))
        second.task_finished(0, FakeResult(metrics=_metrics(latency=9.0)))
        first.close()
        second.close()
        replay = read_ledger(path)
        assert replay.ok, replay.warnings
        assert len(replay.by_type("header")) == 1
        assert len(replay.by_type("sweep-start")) == 2
        assert len(replay.by_type("task-finished")) == 2
        merged = merged_snapshot(replay)
        assert merged.get("detect.latency_ms").count == 2


class TestReplayAggregation:
    def test_merged_snapshot_matches_direct_merge(self, tmp_path):
        path = _write_run(tmp_path / "run.ledger", tasks=4)
        merged = merged_snapshot(read_ledger(path))
        direct = MetricsRegistry()
        for index in range(4):
            direct.merge(MetricsRegistry.from_dict(
                _metrics(latency=10.0 * (index + 1))
            ))
        assert merged.counters == direct.counters
        assert merged.snapshot()["sketches"] == direct.snapshot()["sketches"]

    def test_build_status_progress(self, tmp_path):
        path = _write_run(tmp_path / "run.ledger", tasks=3)
        status = build_status(read_ledger(path))
        progress = status["progress"]
        assert progress["tasks"] == 3
        assert progress["submitted"] == 3
        assert progress["finished"] == 3
        assert progress["done_fraction"] == 1.0
        assert progress["eta_s"] == 0.0
        assert status["complete"] is True
        assert status["counters"]["sim.events"] == 300
        assert status["percentiles"]["detect.latency_ms"]["count"] == 3

    def test_status_of_partial_run_has_eta(self, tmp_path):
        path = tmp_path / "run.ledger"
        with LedgerWriter(path) as ledger:
            ledger.sweep_start(4, jobs=1)
            for index in range(4):
                ledger.task_submitted(index, "reference")
            for index in range(2):
                ledger.task_finished(
                    index, FakeResult(metrics=_metrics())
                )
        status = read_status(path)
        assert status["complete"] is False
        assert status["progress"]["finished"] == 2
        assert status["progress"]["done_fraction"] == 0.5
        assert status["progress"]["eta_s"] is not None

    def test_status_json_serialisable(self, tmp_path):
        path = _write_run(tmp_path / "run.ledger")
        status = read_status(path)
        assert json.loads(json.dumps(status)) == json.loads(
            json.dumps(status)
        )

    def test_worker_accounting(self, tmp_path):
        path = tmp_path / "run.ledger"
        with LedgerWriter(path) as ledger:
            ledger.sweep_start(2, jobs=2)
            for index, pid in enumerate((111, 222)):
                ledger.task_finished(
                    index,
                    FakeResult(metrics=_metrics(events=50),
                               worker={"pid": pid, "host": "h"},
                               wall_s=0.5),
                )
        workers = read_status(path)["workers"]
        assert set(workers) == {"111", "222"}
        assert workers["111"]["tasks"] == 1
        assert workers["111"]["events"] == 50
        assert workers["111"]["events_per_sec"] == pytest.approx(100.0)


class TestForeignMetricsPayload:
    """A task record whose metrics the registry cannot read degrades to
    a replay warning: ``build_status`` (and so ``repro top``) must not
    raise."""

    def _status_with(self, tmp_path, foreign):
        path = tmp_path / "run.ledger"
        with LedgerWriter(path) as ledger:
            ledger.sweep_start(2, jobs=1)
            ledger.task_finished(0, FakeResult(metrics=_metrics(events=7)))
            ledger.task_finished(1, FakeResult(metrics=foreign))
        return build_status(read_ledger(path))

    def _assert_skipped(self, status, reason):
        assert status["progress"]["finished"] == 2
        assert status["counters"]["sim.events"] == 7
        assert status["percentiles"]["detect.latency_ms"]["count"] == 1
        assert status["workers"]["1234"]["events"] == 7
        assert any("task 1: metrics payload skipped" in w and reason in w
                   for w in status["warnings"]), status["warnings"]

    def test_foreign_schema(self, tmp_path):
        foreign = dict(_metrics(), schema="repro.metrics-snapshot/2")
        self._assert_skipped(self._status_with(tmp_path, foreign),
                             "repro.metrics-snapshot/2")

    def test_missing_key(self, tmp_path):
        foreign = {"schema": _metrics()["schema"],
                   "counters": {"sim.events": 5}}
        self._assert_skipped(self._status_with(tmp_path, foreign),
                             "gauges")

    def test_inconsistent_sketch(self, tmp_path):
        foreign = _metrics()
        foreign["sketches"]["detect.latency_ms"].update(
            {"bins": {}, "count": 3})
        self._assert_skipped(self._status_with(tmp_path, foreign),
                             "zero + bins")
