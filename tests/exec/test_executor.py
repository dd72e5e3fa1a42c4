"""Tests for the sweep executor: ordering, parallel identity, caching."""

import dataclasses

import pytest

from repro.apps.synthetic import SyntheticApp
from repro.exec import (
    ResultCache,
    SweepExecutor,
    TaskSpec,
    run_sweep,
)
from repro.faults.models import FAIL_STOP, FaultSpec
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def app():
    return SyntheticApp.bursty(seed=3)


@pytest.fixture(scope="module")
def specs(app):
    sizing = app.sizing()
    out = []
    for seed in (1, 2, 3):
        out.append(TaskSpec.reference(app, 40, seed, sizing=sizing))
        out.append(TaskSpec.duplicated(
            app, 40, seed, sizing=sizing,
            fault=FaultSpec(replica=seed % 2, time=120.0, kind=FAIL_STOP),
        ))
    return out


def _finished_indices(path):
    """Task indices of every ``task-finished`` record in the ledger at
    ``path``, per sweep, in delivery order."""
    from repro.obs.ledger import read_ledger

    replay = read_ledger(path)
    assert replay.ok, replay.warnings
    sweeps = []
    for record in replay.records:
        if record["type"] == "sweep-start":
            sweeps.append([])
        elif record["type"] == "task-finished":
            sweeps[-1].append(record["task"])
    return sweeps


def _strip(result):
    data = dataclasses.asdict(result)
    # Observability-only fields: wall clock, worker identity and the
    # wall-time-derived metrics snapshot legitimately differ between
    # serial / pooled executions of the same spec.
    data.pop("wall_time_s")
    data.pop("worker")
    data.pop("metrics")
    return data


class TestOrderingAndIdentity:
    def test_results_in_input_order(self, specs):
        results = run_sweep(specs)
        kinds = [r.kind for r in results]
        assert kinds == [s.kind for s in specs]

    def test_parallel_identical_to_serial(self, specs):
        serial = run_sweep(specs, jobs=1)
        pooled = run_sweep(specs, jobs=2)
        assert [_strip(r) for r in serial] == [_strip(r) for r in pooled]

    def test_empty_sweep(self):
        assert run_sweep([]) == []

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)


class TestErrorIsolation:
    def test_failed_run_reported_not_raised(self, app):
        # Replicator capacities of 1 under a bursty producer flag both
        # replicas; with the strict single-fault assumption on, the
        # simulation aborts with a SimulationError deterministically.
        sizing = dataclasses.replace(
            app.sizing(), replicator_capacities=(1, 1)
        )
        good = TaskSpec.reference(app, 40, 1, sizing=app.sizing())
        bad = TaskSpec.duplicated(app, 40, 1, sizing=sizing)
        results = run_sweep([good, bad, good])
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "Error" in results[1].error


class TestCacheIntegration:
    def test_second_sweep_executes_nothing(self, specs, tmp_path):
        first = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        serial = first.run(specs)
        assert first.stats.executed == len(specs)
        assert first.stats.cache_hits == 0

        second = SweepExecutor(jobs=2, cache=ResultCache(tmp_path))
        replayed = second.run(specs)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(specs)
        assert [_strip(r) for r in replayed] == [_strip(r) for r in serial]

    def test_refresh_recomputes(self, specs, tmp_path):
        SweepExecutor(cache=ResultCache(tmp_path)).run(specs)
        refreshing = SweepExecutor(
            cache=ResultCache(tmp_path, refresh=True)
        )
        refreshing.run(specs)
        assert refreshing.stats.executed == len(specs)
        assert refreshing.stats.cache_hits == 0

    def test_partial_hits(self, specs, tmp_path):
        SweepExecutor(cache=ResultCache(tmp_path)).run(specs[:3])
        executor = SweepExecutor(cache=ResultCache(tmp_path))
        executor.run(specs)
        assert executor.stats.cache_hits == 3
        assert executor.stats.executed == len(specs) - 3


class TestObservability:
    def test_ledger_finishes_every_task(self, specs, tmp_path):
        from repro.obs.ledger import LedgerWriter

        with LedgerWriter(tmp_path / "run.ledger") as ledger:
            run_sweep(specs, ledger=ledger)
        [finished] = _finished_indices(tmp_path / "run.ledger")
        assert sorted(finished) == list(range(len(specs)))

    def test_stats_counters(self, specs, tmp_path):
        executor = SweepExecutor(cache=ResultCache(tmp_path))
        executor.run(specs)
        stats = executor.stats
        assert stats.tasks == len(specs)
        assert stats.executed == len(specs)
        assert stats.cache_hits == 0
        assert stats.errors == 0
        assert len(stats.task_wall_s) == len(specs)

    def test_stats_wall_times_recorded(self, specs):
        executor = SweepExecutor()
        executor.run(specs)
        assert len(executor.stats.task_wall_s) == len(specs)
        assert all(t > 0 for t in executor.stats.task_wall_s)
        assert executor.stats.as_dict()["tasks"] == len(specs)


class TestFleetCounterMerge:
    """Per-task counters reach the parent's fleet metrics exactly once."""

    MERGED = ("tasks.total", "sim.events")

    @pytest.fixture
    def reference_specs(self, app):
        sizing = app.sizing()
        return [
            TaskSpec.reference(app, 20, seed, sizing=sizing)
            for seed in (11, 12, 13, 14)
        ]

    def test_pool_merges_worker_counters_into_parent(self, reference_specs):
        # Fleet totals come from the merged executor metrics, and must
        # not depend on where the tasks ran.
        totals = {}
        for jobs in (1, 2):
            with SweepExecutor(jobs=jobs) as executor:
                results = executor.run(reference_specs)
            counters = executor.metrics.counters
            totals[jobs] = {name: counters[name] for name in self.MERGED}
        assert totals[1] == totals[2]
        assert totals[2]["tasks.total"] == len(reference_specs)
        assert totals[2]["sim.events"] == sum(r.events for r in results)

    def test_inline_execution_does_not_double_count(self, reference_specs):
        with SweepExecutor(jobs=1) as executor:
            results = executor.run(reference_specs)
        counters = executor.metrics.counters
        # Inline results are merged once; a second merge would double it.
        assert counters["tasks.total"] == len(reference_specs)
        assert counters["sim.events"] == sum(r.events for r in results)


class TestStreaming:
    """The run-ledger + mergeable-snapshot streaming path."""

    def test_results_carry_metrics_and_worker(self, specs):
        for result in run_sweep(specs):
            assert result.worker and result.worker["pid"] > 0
            metrics = MetricsRegistry.from_dict(result.metrics)
            assert metrics.counters["tasks.total"] == 1
            assert metrics.counters["tasks.ok"] == 1
            assert metrics.counters["sim.events"] > 0
            assert metrics.get("task.wall_ms").count == 1

    def test_fault_tasks_observe_detection_latency(self, specs):
        results = run_sweep(specs)
        for spec, result in zip(specs, results):
            metrics = MetricsRegistry.from_dict(result.metrics)
            latency = metrics.get("detect.latency_ms")
            if spec.fault is not None:
                assert latency is not None and latency.count == 1
                assert latency.min == pytest.approx(
                    result.detection_latency()
                )
            else:
                assert latency is None

    def test_fleet_aggregate_order_independent(self, specs):
        # The parent-side merge folds results in completion order, which
        # the pool does not determinise — but every deterministic part
        # of the aggregate must come out identical serial vs pooled.
        serial = SweepExecutor(jobs=1)
        pooled = SweepExecutor(jobs=2)
        serial.run(specs)
        pooled.run(specs)
        assert serial.metrics.counters == pooled.metrics.counters
        assert (serial.metrics.get("detect.latency_ms")
                == pooled.metrics.get("detect.latency_ms"))
        s_digest = serial.metrics.percentile_digests()["detect.latency_ms"]
        p_digest = pooled.metrics.percentile_digests()["detect.latency_ms"]
        for key in ("count", "min", "p50", "p95", "max"):
            assert s_digest[key] == p_digest[key]

    def test_ledger_streams_submissions_and_completions(
        self, specs, tmp_path
    ):
        from repro.obs.ledger import (
            LedgerWriter,
            merged_snapshot,
            read_ledger,
        )

        executor = SweepExecutor(jobs=2)
        with LedgerWriter(tmp_path / "run.ledger") as ledger:
            executor.ledger = ledger
            executor.run(specs)
        replay = read_ledger(tmp_path / "run.ledger")
        assert replay.ok, replay.warnings
        assert len(replay.by_type("sweep-start")) == 1
        assert len(replay.by_type("task-submitted")) == len(specs)
        assert len(replay.by_type("task-finished")) == len(specs)
        assert replay.by_type("sweep-end")[0]["stats"]["tasks"] == len(specs)
        # The ledger replay reconstructs the executor's fleet aggregate.
        merged = merged_snapshot(replay)
        assert merged.counters == executor.metrics.counters
        assert (merged.snapshot()["sketches"]
                == executor.metrics.snapshot()["sketches"])

    def test_cache_hits_stream_flagged_records(self, specs, tmp_path):
        from repro.obs.ledger import (
            LedgerWriter,
            merged_snapshot,
            read_ledger,
        )

        SweepExecutor(cache=ResultCache(tmp_path / "cache")).run(specs)
        with LedgerWriter(tmp_path / "run.ledger") as ledger:
            executor = SweepExecutor(
                cache=ResultCache(tmp_path / "cache"), ledger=ledger
            )
            executor.run(specs)
        replay = read_ledger(tmp_path / "run.ledger")
        finished = replay.by_type("task-finished")
        assert len(finished) == len(specs)
        assert all(record["cache_hit"] for record in finished)
        assert all(record["digest"] for record
                   in replay.by_type("task-submitted"))
        # Cached results still carry their original snapshots, so the
        # replayed aggregate survives a fully-cached re-run.
        merged = merged_snapshot(replay)
        assert merged.counters["tasks.total"] == len(specs)
        assert merged.get("detect.latency_ms").count == 3

    def test_streaming_does_not_change_results(self, specs, tmp_path):
        from repro.obs.ledger import LedgerWriter

        plain = run_sweep(specs)
        with LedgerWriter(tmp_path / "run.ledger") as ledger:
            streamed = run_sweep(specs, ledger=ledger)
        assert [_strip(r) for r in plain] == [_strip(r) for r in streamed]


class TestDedupScheduling:
    """Digest-level dedup: each unique spec executes exactly once per
    batch, duplicates share the leader's result."""

    def test_duplicates_share_the_leaders_result(self, specs):
        doubled = list(specs) + list(specs)
        executor = SweepExecutor()
        results = executor.run(doubled)
        n = len(specs)
        assert executor.stats.unique == n
        assert executor.stats.executed == n
        assert executor.stats.deduped == n
        assert executor.stats.cache_hits == 0
        for i in range(n):
            assert results[i] is results[n + i]

    def test_dedup_results_identical_to_dedup_off(self, specs):
        doubled = list(specs) + list(specs)
        deduped = SweepExecutor(dedup=True)
        plain = SweepExecutor(dedup=False)
        fast = deduped.run(doubled)
        slow = plain.run(doubled)
        assert plain.stats.executed == len(doubled)
        assert plain.stats.deduped == 0
        assert [_strip(r) for r in fast] == [_strip(r) for r in slow]

    def test_dedup_counters_reach_the_stats(self, specs):
        doubled = list(specs) + list(specs)
        executor = SweepExecutor()
        executor.run(doubled)
        stats = executor.stats
        assert stats.tasks == len(doubled)
        assert stats.unique == len(specs)
        assert stats.deduped == len(specs)
        assert stats.executed == len(specs)
        assert len(stats.task_wall_s) == len(specs)

    def test_dedup_under_pool_executes_unique_only(self, specs):
        doubled = list(specs) + list(specs)
        with SweepExecutor(jobs=2) as executor:
            results = executor.run(doubled)
        assert executor.stats.executed == len(specs)
        assert executor.stats.deduped == len(specs)
        serial = run_sweep(doubled, dedup=False)
        assert [_strip(r) for r in results] == [_strip(r) for r in serial]

    def test_cache_hit_resolves_followers_as_deduped(self, specs,
                                                     tmp_path):
        doubled = list(specs) + list(specs)
        SweepExecutor(cache=ResultCache(tmp_path)).run(specs)
        warm = SweepExecutor(cache=ResultCache(tmp_path))
        warm.run(doubled)
        # Leaders hit the cache; their duplicates count as deduped, not
        # as extra cache hits.
        assert warm.stats.cache_hits == len(specs)
        assert warm.stats.deduped == len(specs)
        assert warm.stats.executed == 0

    def test_deduped_tasks_stream_flagged_ledger_records(
        self, specs, tmp_path
    ):
        from repro.obs.ledger import (
            LedgerWriter,
            build_status,
            merged_snapshot,
            read_ledger,
        )

        doubled = list(specs) + list(specs)
        with LedgerWriter(tmp_path / "run.ledger") as ledger:
            executor = SweepExecutor(ledger=ledger)
            executor.run(doubled)
        replay = read_ledger(tmp_path / "run.ledger")
        assert replay.ok, replay.warnings
        finished = replay.by_type("task-finished")
        assert len(finished) == len(doubled)
        flagged = [r for r in finished if r.get("deduped")]
        assert len(flagged) == len(specs)
        status = build_status(replay)
        assert status["progress"]["deduped"] == len(specs)
        # The replayed aggregate still matches the executor's fleet view.
        merged = merged_snapshot(replay)
        assert merged.counters == executor.metrics.counters


class TestMonotoneProgress:
    """The ledger carries exactly one ``task-finished`` record per task
    index — the count ``repro top`` shows as progress — regardless of
    dedup, caching, or chunking."""

    def test_done_counts_every_task_exactly_once(self, specs, tmp_path):
        from repro.obs.ledger import LedgerWriter

        doubled = list(specs) + list(specs)
        with LedgerWriter(tmp_path / "run.ledger") as ledger:
            run_sweep(doubled, jobs=2, ledger=ledger)
        [finished] = _finished_indices(tmp_path / "run.ledger")
        assert sorted(finished) == list(range(len(doubled)))

    def test_done_resets_between_runs(self, specs, tmp_path):
        from repro.obs.ledger import LedgerWriter

        with LedgerWriter(tmp_path / "run.ledger") as ledger:
            executor = SweepExecutor(ledger=ledger)
            executor.run(specs)
            executor.run(specs)
        sweeps = _finished_indices(tmp_path / "run.ledger")
        assert [sorted(finished) for finished in sweeps] == (
            [list(range(len(specs)))] * 2)

    def test_cache_hits_advance_progress(self, specs, tmp_path):
        from repro.obs.ledger import LedgerWriter

        SweepExecutor(cache=ResultCache(tmp_path / "cache")).run(specs)
        with LedgerWriter(tmp_path / "run.ledger") as ledger:
            run_sweep(specs, cache=ResultCache(tmp_path / "cache"),
                      ledger=ledger)
        [finished] = _finished_indices(tmp_path / "run.ledger")
        assert finished == list(range(len(specs)))


class TestPersistentPool:
    def test_pool_survives_across_runs(self, specs):
        executor = SweepExecutor(jobs=2)
        try:
            first = executor.run(specs)
            pool = executor.pool
            assert pool is not None and pool.active
            forks = pool.forks
            second = executor.run(specs)
            assert executor.pool is pool  # same pool object
            assert pool.forks == forks    # no refork between batches
            assert pool.batches >= 2
            assert [_strip(r) for r in first] == [_strip(r) for r in second]
        finally:
            executor.close()
        assert executor.pool is None or not executor.pool.active

    def test_worker_processes_reused_across_runs(self, specs):
        with SweepExecutor(jobs=2) as executor:
            first = executor.run(specs)
            second = executor.run(specs)
        pids_first = {r.worker["pid"] for r in first}
        pids_second = {r.worker["pid"] for r in second}
        assert pids_first & pids_second

    def test_one_shot_executor_leaves_no_pool_behind(self, specs):
        with SweepExecutor(jobs=2) as executor:
            executor.run(specs)
        assert executor.pool is None

    def test_context_manager_closes_pool(self, specs):
        with SweepExecutor(jobs=2) as executor:
            executor.run(specs)
            assert executor.pool is not None and executor.pool.active
        assert executor.pool is None or not executor.pool.active


class TestStaticChunking:
    def test_chunks_cut_in_input_order(self, app, monkeypatch):
        from repro.exec.pool import WorkerPool

        shipped = []
        real_map_chunks = WorkerPool.map_chunks

        def spy(pool, fn, payloads):
            shipped.append([[index for index, _ in chunk]
                            for chunk in payloads])
            return real_map_chunks(pool, fn, payloads)

        monkeypatch.setattr(WorkerPool, "map_chunks", spy)
        sizing = app.sizing()
        specs = [TaskSpec.reference(app, 20, seed, sizing=sizing)
                 for seed in range(18)]
        with SweepExecutor(jobs=2) as executor:
            executor.run(specs)
        # ceil(18 / (2 workers * 4 waves)) = 3 tasks per chunk.
        assert shipped == [[list(range(at, at + 3))
                            for at in range(0, 18, 3)]]


class TestPresolve:
    """A spec handed over without a sizing is solved inside
    ``execute_task`` before its run."""

    def test_unsized_specs_match_presized_results(self, app):
        unsized = [TaskSpec.reference(app, 40, seed) for seed in (1, 2)]
        sized = [TaskSpec.reference(app, 40, seed, sizing=app.sizing())
                 for seed in (1, 2)]
        results = run_sweep(unsized)
        baseline = run_sweep(sized)
        assert [_strip(r) for r in results] == [_strip(r) for r in baseline]

    def test_presolve_does_not_perturb_cache_keys(self, app, tmp_path):
        unsized = [TaskSpec.reference(app, 40, seed) for seed in (1, 2)]
        SweepExecutor(cache=ResultCache(tmp_path)).run(unsized)
        warm = SweepExecutor(cache=ResultCache(tmp_path))
        warm.run(unsized)
        # The sizing is solved at execution, never written back into
        # the spec, so the unsized spec keeps its cache key.
        assert warm.stats.cache_hits == len(unsized)
        assert warm.stats.executed == 0

    def test_parallel_presolve_matches_serial(self, app):
        unsized = [TaskSpec.reference(app, 40, seed)
                   for seed in (1, 2, 3, 4)]
        serial = run_sweep(unsized, jobs=1)
        pooled = run_sweep(unsized, jobs=2)
        assert [_strip(r) for r in serial] == [_strip(r) for r in pooled]
