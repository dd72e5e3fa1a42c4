"""Parallel experiment execution: task specs, workers, cache, executor.

The subsystem turns every experiment run into a pickleable, content-
addressed :class:`TaskSpec`, executes batches of them as handed over
(each spec carries its solved sizing) through an optional fork pool
(:class:`SweepExecutor`), and memoises executed results on disk
(:class:`ResultCache`), keyed by spec digest and guarded by a digest of
the package source.  See ``docs/API.md`` ("Parallel execution &
caching") for the full contract.

Every re-export loads its submodule on first use: importing the package
alone does not load ``multiprocessing`` or ``concurrent.futures``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    **dict.fromkeys(["CACHE_DIR_ENV", "CACHE_SCHEMA_VERSION",
                     "DEFAULT_CACHE_DIR", "ResultCache"], "cache"),
    **dict.fromkeys(["SweepExecutor", "SweepStats"], "executor"),
    **dict.fromkeys(["PoolCrashError", "WorkerPool", "fork_available"],
                    "pool"),
    **dict.fromkeys(["MonitorRecord", "TaskResult", "hash_values",
                     "snapshot_for_result"], "results"),
    **dict.fromkeys(["KIND_DUPLICATED", "KIND_REFERENCE",
                     "TASK_SCHEMA_VERSION", "DistanceMonitorSpec",
                     "SyntheticAppSpec", "TaskSpec", "TaskSpecError",
                     "build_app", "spec_from_jsonable", "spec_to_jsonable"],
                    "taskspec"),
    **dict.fromkeys(["execute_task", "run_chunk"], "worker"),
})

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "DistanceMonitorSpec",
    "KIND_DUPLICATED",
    "KIND_REFERENCE",
    "MonitorRecord",
    "PoolCrashError",
    "ResultCache",
    "SweepExecutor",
    "SweepStats",
    "SyntheticAppSpec",
    "TASK_SCHEMA_VERSION",
    "TaskResult",
    "TaskSpec",
    "TaskSpecError",
    "WorkerPool",
    "build_app",
    "execute_task",
    "fork_available",
    "hash_values",
    "run_chunk",
    "snapshot_for_result",
    "spec_from_jsonable",
    "spec_to_jsonable",
]
