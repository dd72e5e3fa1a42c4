"""Live status surface tests: renderer, Prometheus exposition, HTTP."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.ledger import LedgerWriter, read_status
from repro.obs.live import StatusServer, render_prometheus, render_top

from tests.obs.test_ledger import FakeDetection, FakeResult, _write_run


@pytest.fixture
def ledger_path(tmp_path):
    return _write_run(tmp_path / "run.ledger")


class TestRenderTop:
    def test_complete_run(self, ledger_path):
        text = render_top(read_status(ledger_path))
        assert "(complete)" in text
        assert "3/3 tasks" in text
        assert "(100%)" in text
        assert "detect.latency_ms" in text
        assert "pid" in text  # per-worker table

    def test_campaign_line(self, tmp_path):
        path = tmp_path / "c.ledger"
        with LedgerWriter(path) as ledger:
            ledger.campaign_start(seed=7, budget=10, scenarios=12,
                                  oracles=["run-ok"])
            ledger.scenario_verdict(0, "d0", "s0", "pass", [])
        text = render_top(read_status(path))
        assert "campaign seed=7 budget=10" in text
        assert "(running)" in text
        assert "verdicts: pass=1" in text

    def test_empty_ledger_renders_with_warning(self, tmp_path):
        path = tmp_path / "empty.ledger"
        path.touch()
        text = render_top(read_status(path))
        assert "warning: empty ledger" in text

    def test_renders_without_percentile_section_when_no_sketches(
        self, tmp_path
    ):
        path = tmp_path / "plain.ledger"
        with LedgerWriter(path) as ledger:
            ledger.sweep_start(1, jobs=1)
            ledger.task_finished(0, FakeResult(metrics=None))
        text = render_top(read_status(path))
        assert "detect.latency_ms" not in text


class TestRenderPrometheus:
    def test_counter_gauge_summary_lines(self, ledger_path):
        text = render_prometheus(read_status(ledger_path))
        assert "# TYPE repro_sim_events_total counter" in text
        assert "repro_sim_events_total 300" in text
        assert '"0.95"' in text  # sketch summary quantile
        assert "repro_detect_latency_ms_count 3" in text
        assert "repro_tasks_finished 3" in text
        assert text.endswith("\n")

    def test_names_are_prometheus_safe(self, ledger_path):
        text = render_prometheus(read_status(ledger_path))
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name = line.split("{")[0].split(" ")[0]
            assert name.startswith("repro_")
            assert all(c.isalnum() or c == "_" for c in name)


class TestStatusServer:
    def _get(self, port, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=5
        ) as response:
            return response.status, response.read()

    def test_status_endpoint_serves_json(self, ledger_path):
        with StatusServer(ledger_path, port=0) as server:
            code, body = self._get(server.port, "/status")
        assert code == 200
        status = json.loads(body)
        assert status["progress"]["finished"] == 3
        assert status["complete"] is True

    def test_metrics_endpoint_serves_prometheus(self, ledger_path):
        with StatusServer(ledger_path, port=0) as server:
            code, body = self._get(server.port, "/metrics")
        assert code == 200
        assert b"repro_sim_events_total" in body

    def test_root_and_404(self, ledger_path):
        with StatusServer(ledger_path, port=0) as server:
            code, body = self._get(server.port, "/")
            assert code == 200 and b"/status" in body
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.port, "/nope")
            assert excinfo.value.code == 404

    def test_server_observes_live_appends(self, tmp_path):
        # The server re-reads the ledger per request, so records written
        # after start() show up — the mid-run `repro top` story.
        # flush_interval=0 pins write-through; the default policy only
        # delays hot records by FLUSH_INTERVAL_S.
        path = tmp_path / "live.ledger"
        ledger = LedgerWriter(path, flush_interval=0.0)
        ledger.sweep_start(2, jobs=1)
        with StatusServer(path, port=0) as server:
            _, body = self._get(server.port, "/status")
            assert json.loads(body)["progress"]["finished"] == 0
            ledger.task_finished(
                0, FakeResult(detections=[FakeDetection(5.0)])
            )
            _, body = self._get(server.port, "/status")
            assert json.loads(body)["progress"]["finished"] == 1
            assert json.loads(body)["complete"] is False
        ledger.close()
