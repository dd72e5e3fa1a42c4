"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_pjd, build_parser, main


class TestParsePjd:
    def test_plain(self):
        model = _parse_pjd("30,2,30")
        assert model.as_tuple() == (30.0, 2.0, 30.0)

    def test_angle_brackets_and_spaces(self):
        model = _parse_pjd("<6.3, 0.5, 6.3>")
        assert model.period == 6.3

    def test_bad_arity(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_pjd("1,2")

    def test_invalid_model(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_pjd("0,0,0")


class TestSizingCommand:
    def test_app_sizing(self, capsys):
        assert main(["sizing", "--app", "mjpeg"]) == 0
        out = capsys.readouterr().out
        assert "|R1|" in out
        assert "= 2" in out

    def test_explicit_models(self, capsys):
        code = main([
            "sizing",
            "--producer", "10,1,10",
            "--replica1", "10,2,10",
            "--replica2", "10,8,10",
        ])
        assert code == 0
        assert "D_selector" in capsys.readouterr().out

    def test_missing_models_errors(self, capsys):
        assert main(["sizing", "--producer", "10,1,10"]) == 2

    @pytest.mark.parametrize("producer", ["nan,0,1", "inf,0,1"])
    def test_non_finite_model_is_a_usage_error(self, capsys, producer):
        with pytest.raises(SystemExit) as exit_info:
            main(["sizing", "--producer", producer,
                  "--replica1", "10,2,1", "--replica2", "10,2,1",
                  "--consumer", "10,2,1"])
        assert exit_info.value.code == 2
        assert "must be finite" in capsys.readouterr().err


class TestDemoCommand:
    def test_adpcm_demo(self, capsys):
        code = main(["demo", "--app", "adpcm", "--warmup", "40",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fail-stop fault" in out
        assert "consumer stalls: 0" in out

    def test_degrade_demo(self, capsys):
        code = main(["demo", "--app", "adpcm", "--degrade",
                     "--warmup", "40"])
        assert code == 0
        assert "rate-degrade" in capsys.readouterr().out


class TestTablesCommand:
    def test_table1_only(self, capsys):
        assert main(["tables", "--which", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_table2_single_app(self, capsys):
        code = main(["tables", "--which", "2", "--apps", "adpcm",
                     "--runs", "2", "--warmup", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2 [adpcm]" in out
        assert "mjpeg" not in out


class TestCalibrateCommand:
    def test_fits_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("\n".join(str(i * 10.0) for i in range(50)))
        assert main(["calibrate", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "fitted PJD" in out
        assert "period       = 10" in out

    def test_too_short_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("1.0\n")
        assert main(["calibrate", str(trace)]) == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestReproduceCommand:
    def test_writes_markdown_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(["reproduce", str(out), "--runs", "2",
                     "--warmup", "40"])
        assert code == 0
        assert "all verdicts hold: True" in capsys.readouterr().out
        assert "Table 2" in out.read_text()


class TestReportCommand:
    def test_mjpeg_failstop_within_bound(self, capsys):
        code = main(["report", "--app", "mjpeg", "--fault", "fail-stop",
                     "--warmup", "50", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault=fail-stop -> replica 1" in out
        assert "within bound" in out
        assert "Divergence headroom" in out

    def test_json_output_validates(self, tmp_path):
        import json

        from repro.obs import validate_report

        out = tmp_path / "run.json"
        code = main(["report", "--app", "adpcm", "--warmup", "50",
                     "--json", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        validate_report(report)
        assert report["meta"]["app"] == "adpcm"
        assert report["detection"]["within_bound"] is True

    def test_trace_out_is_loadable_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        code = main(["report", "--warmup", "50", "--trace-out", str(out)])
        assert code == 0
        assert "perfetto" in capsys.readouterr().out.lower()
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"X", "C", "i", "M"} <= phases

    def test_fault_free_run(self, capsys):
        code = main(["report", "--app", "adpcm", "--fault", "none",
                     "--warmup", "30"])
        assert code == 0
        assert "no fault injected" in capsys.readouterr().out


class TestRunCommand:
    def test_prints_engine_summary(self, capsys):
        assert main(["run", "--app", "adpcm", "--tokens", "60",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "tokens delivered" in out


class TestCampaignCommand:
    def test_small_campaign_passes(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "out"
        code = main(["campaign", "--budget", "2", "--seed", "7",
                     "--no-cache", "--no-self-tests", "--no-shrink",
                     "--out-dir", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Campaign: seed=7 budget=2" in out
        assert "digest" in out
        report = json.loads((out_dir / "campaign-report.json").read_text())
        assert report["schema"] == "repro.campaign-report/1"
        assert report["campaign"]["scenarios"] == 2

    def test_oracle_flag_restricts_suite(self, capsys):
        code = main(["campaign", "--budget", "1", "--seed", "7",
                     "--no-cache", "--no-self-tests", "--no-shrink",
                     "--oracle", "run-ok", "--oracle", "equivalence"])
        assert code == 0
        out = capsys.readouterr().out
        assert "run-ok" in out
        assert "no-false-positive" not in out

    def test_replay_reproduces_saved_violation(self, tmp_path, capsys):
        from repro.apps.synthetic import SyntheticApp
        from repro.campaign import Reproducer, save_reproducer
        from repro.campaign.scenario import (
            MISSIZE_CAPACITY,
            Scenario,
            SyntheticModels,
        )

        app = SyntheticApp.bursty(seed=0)
        models = SyntheticModels(
            producer=app.producer_model,
            replicas=(app.replica_input_models[0],
                      app.replica_input_models[1]),
            consumer=app.consumer_model,
        )
        scenario = Scenario(index=0, app="synthetic-bursty", tokens=40,
                            warmup_tokens=0, seed=5, models=models,
                            missize=MISSIZE_CAPACITY,
                            expect_violation=True)
        path = save_reproducer(
            Reproducer(scenario=scenario,
                       target_oracles=("no-false-positive",)),
            tmp_path / "r.json",
        )
        code = main(["campaign", "--no-cache", "--replay", str(path)])
        assert code == 0
        assert "reproduced" in capsys.readouterr().out

    def test_replay_quarantines_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ rotten")
        code = main(["campaign", "--no-cache", "--replay", str(bad)])
        assert code == 1
        captured = capsys.readouterr()
        assert "SKIP" in captured.err
        assert "not valid JSON" in captured.err


class TestBenchCommand:
    """``repro bench ARGS`` is the harness's ``main`` under another name."""

    def _seed_db(self, root):
        import json

        db = {
            "version": 1,
            "baseline": {
                "label": "seed",
                "results": {"a": {"mean": 1e-3, "min": 1e-3, "rounds": 5}},
            },
            "runs": [],
        }
        (root / "BENCH_primitives.json").write_text(json.dumps(db))
        return db

    def _fake_run_benchmarks(self, monkeypatch, min_s=1e-3):
        import repro.tools.bench_compare as bc

        calls = {}

        def fake(repo_root, smoke, profile_dir=None):
            calls["profile_dir"] = profile_dir
            if profile_dir is not None:
                profile_dir.mkdir(parents=True, exist_ok=True)
                (profile_dir / "profile-test_a.prof").write_bytes(b"")
            return {"a": {"mean": min_s, "min": min_s, "rounds": 5}}

        monkeypatch.setattr(bc, "run_benchmarks", fake)
        return calls

    def test_bench_records_run_with_fingerprint(
            self, tmp_path, monkeypatch, capsys, pinned_gates):
        import json

        from repro.tools.bench_compare import machine_fingerprint

        self._seed_db(tmp_path)
        self._fake_run_benchmarks(monkeypatch)
        code = main(["bench", "--label", "probe",
                     "--repo-root", str(tmp_path)])
        assert code == 0
        db = json.loads((tmp_path / "BENCH_primitives.json").read_text())
        assert db["runs"][-1]["label"] == "probe"
        assert db["runs"][-1]["machine"] == machine_fingerprint()

    def test_bench_profile_reports_dumps(
            self, tmp_path, monkeypatch, capsys, pinned_gates):
        self._seed_db(tmp_path)
        before = (tmp_path / "BENCH_primitives.json").read_bytes()
        calls = self._fake_run_benchmarks(monkeypatch)
        code = main(["bench", "--repo-root", str(tmp_path),
                     "--smoke", "--profile", str(tmp_path / "profs")])
        assert code == 0
        assert calls["profile_dir"] == tmp_path / "profs"
        assert "1 cProfile dump(s)" in capsys.readouterr().out
        # --smoke profiles without recording.
        assert (tmp_path / "BENCH_primitives.json").read_bytes() == before

    def test_bench_profile_defaults_under_repo_root(
            self, tmp_path, monkeypatch, pinned_gates):
        self._seed_db(tmp_path)
        calls = self._fake_run_benchmarks(monkeypatch)
        code = main(["bench", "--repo-root", str(tmp_path),
                     "--profile", "--fail-on-regression", "15"])
        assert code == 0
        assert calls["profile_dir"] == tmp_path / "benchmarks" / "profiles"

    @pytest.mark.parametrize("min_s, expected", [(1e-3, 0), (2e-3, 1)])
    def test_bench_alias_matches_harness_main(
            self, tmp_path, monkeypatch, pinned_gates, min_s, expected):
        """Same exit code, trajectory left byte-identical, on a pass and
        on a same-machine regression."""
        import json

        from repro.tools import bench_compare

        db = self._seed_db(tmp_path)
        db["runs"].append(dict(db["baseline"], label="latest",
                               machine=bench_compare.machine_fingerprint()))
        path = tmp_path / "BENCH_primitives.json"
        path.write_text(json.dumps(db))
        before = path.read_bytes()
        self._fake_run_benchmarks(monkeypatch, min_s)
        argv = ["--repo-root", str(tmp_path), "--fail-on-regression", "15"]
        assert main(["bench", *argv]) == expected
        assert path.read_bytes() == before
        assert bench_compare.main(argv) == expected
        assert path.read_bytes() == before

class TestStreamingCli:
    def _run_streamed_campaign(self, tmp_path):
        ledger = tmp_path / "campaign.ledger"
        code = main(["campaign", "--budget", "2", "--seed", "7",
                     "--no-cache", "--no-self-tests", "--no-shrink",
                     "--ledger", str(ledger)])
        return code, ledger

    def test_campaign_ledger_flag_streams_run(self, tmp_path, capsys):
        from repro.obs import read_ledger

        code, ledger = self._run_streamed_campaign(tmp_path)
        assert code == 0
        assert "streaming run ledger" in capsys.readouterr().out
        replay = read_ledger(ledger)
        assert replay.ok, replay.warnings
        assert replay.by_type("campaign-end")

    def test_top_renders_completed_ledger(self, tmp_path, capsys):
        import json

        _code, ledger = self._run_streamed_campaign(tmp_path)
        capsys.readouterr()
        status_path = tmp_path / "status.json"
        assert main(["top", str(ledger), "--json", str(status_path)]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "(complete)" in out
        status = json.loads(status_path.read_text())
        assert status["complete"] is True
        assert status["progress"]["finished"] == 4  # 2 scenarios x 2 runs

    def test_status_port_requires_ledger(self, tmp_path, capsys):
        code = main(["campaign", "--budget", "1", "--no-cache",
                     "--no-self-tests", "--no-shrink",
                     "--status-port", "0"])
        assert code == 2
        assert "--status-port requires --ledger" in (
            capsys.readouterr().err
        )

    def test_campaign_status_port_serves_during_run(
        self, tmp_path, capsys
    ):
        # --status-port 0 binds an ephemeral port; the endpoint address
        # is printed before the campaign body runs.
        ledger = tmp_path / "campaign.ledger"
        code = main(["campaign", "--budget", "1", "--seed", "7",
                     "--no-cache", "--no-self-tests", "--no-shrink",
                     "--ledger", str(ledger), "--status-port", "0"])
        assert code == 0
        assert "status endpoint: http://127.0.0.1:" in (
            capsys.readouterr().out
        )


class TestCacheCommand:
    def _populate(self, root, entries=3):
        from repro.exec import ResultCache, TaskResult

        cache = ResultCache(root)
        for i in range(1, entries + 1):
            cache.put(f"{i:02x}" * 32, TaskResult(kind="reference"))
        return cache

    def test_stats_reports_entries_and_size(self, tmp_path, capsys):
        self._populate(tmp_path / "cache")
        code = main(["cache", "--dir", str(tmp_path / "cache"), "stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 entries" in out
        assert "MiB" in out

    def test_clear_empties_the_cache(self, tmp_path, capsys):
        cache = self._populate(tmp_path / "cache")
        code = main(["cache", "--dir", str(tmp_path / "cache"), "clear"])
        assert code == 0
        assert "removed 3 entries" in capsys.readouterr().out
        assert cache.size_stats() == {"entries": 0, "bytes": 0}

    def test_prune_respects_budget(self, tmp_path, capsys):
        cache = self._populate(tmp_path / "cache")
        code = main(["cache", "--dir", str(tmp_path / "cache"),
                     "prune", "--max-mb", "0"])
        assert code == 0
        assert "removed 3 of 3 entries" in capsys.readouterr().out
        assert cache.size_stats()["entries"] == 0

    def test_prune_noop_under_budget(self, tmp_path, capsys):
        self._populate(tmp_path / "cache")
        code = main(["cache", "--dir", str(tmp_path / "cache"),
                     "prune", "--max-mb", "1024"])
        assert code == 0
        assert "removed 0 of 3 entries" in capsys.readouterr().out

    def test_cache_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["cache"])

    @pytest.mark.parametrize("limit", ["-1", "nan"])
    def test_prune_rejects_malformed_limit(self, tmp_path, capsys, limit):
        cache = self._populate(tmp_path / "cache")
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "--dir", str(tmp_path / "cache"),
                  "prune", "--max-mb", limit])
        assert exit_info.value.code == 2
        assert "--max-mb" in capsys.readouterr().err
        assert cache.size_stats()["entries"] == 3


class TestMalformedNumbers:
    def test_zero_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "--jobs", "0", "--budget", "2",
                  "--no-cache"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["demo", "--app", "adpcm", "--degrade"],
        ["report", "--app", "adpcm", "--fault", "rate-degrade"],
    ], ids=["demo", "report"])
    @pytest.mark.parametrize("slowdown", ["nan", "inf", "-inf", "0.5", "1",
                                          "fast"])
    def test_bad_slowdown_is_a_usage_error(self, capsys, command, slowdown):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, f"--slowdown={slowdown}"])
        assert exit_info.value.code == 2
        assert "--slowdown" in capsys.readouterr().err
