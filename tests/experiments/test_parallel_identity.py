"""Parallel, serial and cached executions must be indistinguishable.

The PR 4 acceptance criteria, as tests: a Table 2 sweep run with
``jobs=4`` must produce **byte-identical** JSON to the serial run, and
re-running against a warm cache must execute **zero** simulator runs
while still reproducing the same results.
"""

import json

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.apps.base import AppScale
from repro.exec import ResultCache, SweepExecutor, run_sweep
from repro.experiments.ablations import threshold_sweep
from repro.experiments.table2 import run_table2, table2_specs
from repro.experiments.table3 import run_table3

RUNS = 3
WARMUP = 40
POST = 15


@pytest.fixture(scope="module")
def app():
    return ALL_APPLICATIONS[1](AppScale(), seed=42)  # adpcm: fastest


def _table2_json(app, **kwargs):
    result = run_table2(app, runs=RUNS, warmup_tokens=WARMUP,
                        post_tokens=POST, **kwargs)
    return json.dumps(result.as_dict(), sort_keys=True)


class TestParallelIdentity:
    def test_table2_jobs4_byte_identical_to_serial(self, app):
        serial = _table2_json(app, jobs=1)
        parallel = _table2_json(app, jobs=4)
        assert serial == parallel

    def test_table3_jobs2_identical_to_serial(self, app):
        serial = run_table3(apps=[app], runs=RUNS, warmup_tokens=WARMUP,
                            post_tokens=POST, jobs=1)
        parallel = run_table3(apps=[app], runs=RUNS, warmup_tokens=WARMUP,
                              post_tokens=POST, jobs=2)
        assert serial == parallel

    def test_ablation_jobs2_identical_to_serial(self, app):
        kwargs = dict(thresholds=[2, 6], runs=2, warmup_tokens=WARMUP,
                      post_tokens=POST)
        assert (
            threshold_sweep(app, jobs=1, **kwargs)
            == threshold_sweep(app, jobs=2, **kwargs)
        )


class TestCachedReplay:
    def test_cached_rerun_executes_zero_runs(self, app, tmp_path):
        uncached = _table2_json(app, jobs=1)
        _table2_json(app, jobs=1, cache=ResultCache(tmp_path))

        # Drive the same sweep through an executor we can interrogate:
        # every spec must come from the cache, none from the simulator.
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        specs = table2_specs(app, runs=RUNS, warmup_tokens=WARMUP,
                             post_tokens=POST)
        executor.run(specs)
        assert executor.stats.executed == 0
        assert executor.stats.cache_hits == len(specs)

        cached = _table2_json(app, jobs=1, cache=ResultCache(tmp_path))
        assert cached == uncached

    def test_parallel_populates_cache_serial_replays(self, app, tmp_path):
        parallel = _table2_json(app, jobs=2, cache=ResultCache(tmp_path))
        replay_executor = SweepExecutor(jobs=1,
                                        cache=ResultCache(tmp_path))
        specs = table2_specs(app, runs=RUNS, warmup_tokens=WARMUP,
                             post_tokens=POST)
        replay_executor.run(specs)
        assert replay_executor.stats.executed == 0
        serial = _table2_json(app, jobs=1, cache=ResultCache(tmp_path))
        assert serial == parallel


class TestUnsizedIdentity:
    """Specs handed over without a sizing are solved at execution; the
    results must be byte-identical to the presized specs', serial or
    parallel."""

    def test_unsized_identical_to_presized(self, app):
        import dataclasses

        specs = table2_specs(app, runs=RUNS, warmup_tokens=WARMUP,
                             post_tokens=POST)
        # table2_specs pre-attaches sizings; strip them.
        stripped = [dataclasses.replace(s, sizing=None) for s in specs]
        presized_results = run_sweep(specs, jobs=1)
        unsized_results = run_sweep(stripped, jobs=2)

        def canonical(results):
            payload = []
            for result in results:
                entry = dataclasses.asdict(result)
                # Wall clock, worker identity and the wall-time-derived
                # metrics snapshot are observability-only: not
                # deterministic across serial/pooled executions.
                entry.pop("wall_time_s")
                entry.pop("worker")
                entry.pop("metrics")
                payload.append(entry)
            return json.dumps(payload, sort_keys=True, default=str)

        assert canonical(presized_results) == canonical(unsized_results)


class TestExecutionMatrix:
    """The PR 9 acceptance matrix: every combination of worker count and
    dedup must be byte-identical to the plain serial run, and with dedup
    on each unique digest executes exactly once.  The larger input packs
    several tasks into each pool chunk."""

    @pytest.fixture(scope="class")
    def matrix_inputs(self):
        from repro.apps.synthetic import SyntheticApp
        from repro.exec import TaskSpec

        synthetic = SyntheticApp.bursty(seed=3)
        sizing = synthetic.sizing()
        unique = [
            TaskSpec.reference(synthetic, 30, seed, sizing=sizing)
            for seed in range(1, 13)
        ]
        # Two duplicates interleaved: 6 tasks, 4 unique digests.
        six = [unique[0], unique[1], unique[2],
               unique[0], unique[3], unique[1]]
        # Every second spec repeated: 18 tasks, 12 unique digests.
        eighteen = []
        for index, spec in enumerate(unique):
            eighteen.append(spec)
            if index % 2:
                eighteen.append(spec)
        return {"six": six, "eighteen": eighteen}

    @pytest.fixture(scope="class")
    def baselines(self, matrix_inputs):
        return {
            name: self._canonical(run_sweep(specs, jobs=1, dedup=False))
            for name, specs in matrix_inputs.items()
        }

    @staticmethod
    def _canonical(results):
        import dataclasses

        payload = []
        for result in results:
            entry = dataclasses.asdict(result)
            entry.pop("wall_time_s")
            entry.pop("worker")
            entry.pop("metrics")
            payload.append(entry)
        return json.dumps(payload, sort_keys=True, default=str)

    @pytest.mark.parametrize("matrix", ["six", "eighteen"])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("dedup", [True, False])
    def test_byte_identical_and_exactly_once(
        self, matrix_inputs, baselines, matrix, jobs, dedup
    ):
        specs = matrix_inputs[matrix]
        with SweepExecutor(jobs=jobs, dedup=dedup) as executor:
            results = executor.run(specs)
        assert self._canonical(results) == baselines[matrix]

        unique = len({spec.digest() for spec in specs})
        duplicates = len(specs) - unique
        stats = executor.stats
        if dedup:
            # Exactly-once execution per unique digest.
            assert stats.executed == unique
            assert stats.unique == unique
            assert stats.deduped == duplicates
        else:
            assert stats.executed == len(specs)
            assert stats.deduped == 0
        assert len(stats.task_wall_s) == stats.executed
        assert stats.tasks == len(specs)
        assert stats.cache_hits == 0
        assert stats.errors == 0
