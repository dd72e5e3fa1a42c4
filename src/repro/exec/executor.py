"""The process-pool sweep executor.

Experiments hand the executor a *list* of :class:`TaskSpec` and get back
the matching list of :class:`TaskResult`, in input order, regardless of
how (or whether) the tasks ran in parallel:

* ``jobs <= 1`` — inline serial execution, no pool, no IPC (the default;
  also the automatic fallback when the platform lacks ``fork``);
* ``jobs > 1`` — a persistent :class:`~repro.exec.pool.WorkerPool` fans
  chunks of tasks across cores.  The pool **survives across runs**: a
  campaign or table harness that calls :meth:`run` repeatedly pays fork
  startup once, and workers keep their warm per-process solver state
  (:func:`~repro.exec.worker.worker_solver_context`) from batch to
  batch.  Close the executor (or use it as a context manager) when done;
  one-shot :func:`run_sweep` calls do this automatically.

Before anything executes, the batch is **scheduled**:

1. *Dedup* — pending specs are grouped by content digest; each unique
   digest executes exactly once per batch and duplicates share the
   leader's result (input order of the returned list is untouched).
2. *Bulk cache consult* — with a :class:`~repro.exec.cache.ResultCache`
   attached, the unique digests are looked up in one pass; hits (and
   their duplicates) never reach the pool.
3. *Parallel presolve* — specs still lacking a solved sizing are fanned
   across the pool (:func:`~repro.exec.worker.presolve_chunk`), sharing
   per-worker solver memos, instead of solving serially in the
   parent.  Digests are always computed from the *original* specs, so
   presolving never perturbs cache keys.
4. *Sizing-group ordering + adaptive chunking* — tasks are ordered so
   chunk-mates pose the same sizing problem (warm solver state hits),
   then chunked to a target of :data:`TARGET_CHUNK_S` seconds using an
   EWMA of measured per-task latency that persists across batches;
   an explicit ``chunksize`` overrides, and the first-ever batch falls
   back to the static :data:`_CHUNK_WAVES` heuristic.

Progress is observable through a
:class:`~repro.obs.metrics.MetricsRegistry` (``sweep.*`` counters and
the per-task wall-time histogram), a ``progress`` callback (called once
per finished task with a **monotone** completed count), and/or a
:class:`~repro.obs.ledger.LedgerWriter` — the streaming path: every
submission and completion is appended to the run ledger as it happens,
and each result's mergeable :class:`~repro.obs.sketch.MetricsSnapshot`
is folded into the executor's fleet-wide ``metrics`` aggregate
(extending the ``COPY_STATS`` delta pattern), so campaign-scale
percentiles exist without shipping raw series.

Because every run is a pure function of its spec (seeded RNG only — see
``tests/experiments/test_runner.py::TestSeedPurity``), parallel, serial,
deduplicated and cached executions of the same sweep produce identical
results (see DESIGN.md §10 for the shared-result determinism rule).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.exec.cache import ResultCache
from repro.exec.pool import WorkerPool, fork_available
from repro.exec.results import TaskResult
from repro.exec.taskspec import TaskSpec
from repro.exec.worker import execute_task, presolve_chunk, run_chunk

#: Chunks per worker per sweep for the *first* batch (no latency data
#: yet): larger spreads load, smaller amortises IPC better.
_CHUNK_WAVES = 4

#: Adaptive chunking aims each chunk at this much work — long enough to
#: amortise pickling/IPC, short enough to bound the straggler tail on
#: heterogeneous scenario matrices.
TARGET_CHUNK_S = 0.25

#: EWMA smoothing factor for the measured per-task latency.
_EWMA_ALPHA = 0.3

ProgressCallback = Callable[[int, int, TaskSpec, TaskResult], None]


def _fork_available() -> bool:
    return fork_available()


@dataclass
class SweepStats:
    """What one sweep did, and how long each part took."""

    tasks: int = 0
    executed: int = 0
    cache_hits: int = 0
    #: Tasks that shared another task's result (same content digest).
    deduped: int = 0
    #: Distinct content digests in the batch (== tasks when dedup off).
    unique: int = 0
    #: Sizings solved by the executor's presolve pass.
    presolved: int = 0
    errors: int = 0
    jobs: int = 1
    #: Chunk size the pool actually used (0 = inline / nothing pending).
    chunksize: int = 0
    wall_time_s: float = 0.0
    task_wall_s: List[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "tasks": self.tasks,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "unique": self.unique,
            "presolved": self.presolved,
            "errors": self.errors,
            "jobs": self.jobs,
            "chunksize": self.chunksize,
            "wall_time_s": self.wall_time_s,
        }


class SweepExecutor:
    """Reusable sweep runner; ``stats`` describes the last :meth:`run`.

    ``dedup=False`` disables digest grouping (every spec executes even
    when identical to another); ``persistent=False`` tears the worker
    pool down after every run (the pre-persistent-pool behaviour, kept
    for A/B benchmarking); ``target_chunk_s=None`` disables adaptive
    chunking in favour of the static first-batch heuristic.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        registry=None,
        chunksize: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        ledger=None,
        dedup: bool = True,
        persistent: bool = True,
        target_chunk_s: Optional[float] = TARGET_CHUNK_S,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.registry = registry
        self.chunksize = chunksize
        self.progress = progress
        self.ledger = ledger
        self.dedup = dedup
        self.persistent = persistent
        self.target_chunk_s = target_chunk_s
        self.stats = SweepStats()
        #: The persistent worker pool (created lazily on the first
        #: parallel run; ``None`` until then and after :meth:`close`).
        self.pool: Optional[WorkerPool] = None
        #: EWMA of measured per-task wall time, persisted across runs —
        #: the adaptive chunker's latency estimate.
        self.ewma_task_s: Optional[float] = None
        self._solver_context = None
        self._done = 0
        # Fleet-wide mergeable aggregate over every result this executor
        # has seen (cache hits included); reset per run().
        from repro.obs.sketch import MetricsSnapshot

        self.metrics = MetricsSnapshot()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (idempotent).  The executor stays
        usable — a later :meth:`run` forks a fresh pool."""
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # -- public API --------------------------------------------------------

    def run(self, specs: Sequence[TaskSpec]) -> List[TaskResult]:
        """Execute ``specs``; returns results in input order."""
        from repro.obs.sketch import MetricsSnapshot

        started = time.perf_counter()
        specs = list(specs)
        stats = SweepStats(tasks=len(specs), jobs=self.jobs)
        results: List[Optional[TaskResult]] = [None] * len(specs)
        self.metrics = MetricsSnapshot()
        self._done = 0
        if self.ledger is not None:
            self.ledger.sweep_start(len(specs), self.jobs)

        digests: List[Optional[str]] = [None] * len(specs)
        if self.cache is not None or self.dedup:
            for index, spec in enumerate(specs):
                digests[index] = spec.digest()
        if self.ledger is not None:
            for index, spec in enumerate(specs):
                self.ledger.task_submitted(index, spec.kind,
                                           digest=digests[index])

        # Dedup grouping: the first index carrying a digest leads; later
        # occurrences follow (share the leader's result).
        leaders: List[int] = []
        followers: Dict[int, List[int]] = {}
        if self.dedup:
            leader_of: Dict[str, int] = {}
            for index in range(len(specs)):
                leader = leader_of.setdefault(digests[index], index)
                if leader == index:
                    leaders.append(index)
                else:
                    followers.setdefault(leader, []).append(index)
        else:
            leaders = list(range(len(specs)))
        stats.unique = len(leaders)
        stats.deduped = len(specs) - len(leaders)

        # Bulk cache consult over the unique digests only.
        pending: List[int] = []
        if self.cache is not None:
            hits = self.cache.get_many(
                [digests[index] for index in leaders]
            )
        else:
            hits = {}
        for index in leaders:
            hit = hits.get(digests[index]) if digests[index] else None
            if hit is not None:
                self._finish(index, specs[index], hit, stats,
                             results, cache_hit=True)
                self._finish_followers(index, specs, followers, hit,
                                       stats, results)
            else:
                pending.append(index)

        try:
            if pending:
                use_pool = (
                    self.jobs > 1 and len(pending) > 1 and _fork_available()
                )
                exec_specs = self._presolve(specs, pending, stats, use_pool)
                if use_pool:
                    self._run_pool(specs, exec_specs, pending, digests,
                                   followers, results, stats)
                else:
                    self._run_inline(specs, exec_specs, pending, digests,
                                     followers, results, stats)
        finally:
            if not self.persistent:
                self.close()

        stats.wall_time_s = time.perf_counter() - started
        self._flush_metrics(stats)
        self.stats = stats
        if self.ledger is not None:
            self.ledger.sweep_end(stats.as_dict())
        return results  # type: ignore[return-value]

    # -- scheduling --------------------------------------------------------

    def _presolve(self, specs, pending, stats, use_pool):
        """Attach solved sizings to pending specs that lack one.

        Returns ``{index: spec-to-execute}`` — presolved copies where a
        solve happened, the original spec otherwise.  Digests were
        computed from the originals before this runs, so cache keys are
        unaffected; warm solves are bit-identical to cold ones, so
        results are unaffected too.
        """
        exec_specs = {index: specs[index] for index in pending}
        unsized = [
            index for index in pending if specs[index].sizing is None
        ]
        if not unsized:
            return exec_specs
        stats.presolved = len(unsized)
        if use_pool and len(unsized) > 1:
            order = self._sizing_order(specs, unsized)
            chunksize = max(1, -(-len(order) // self.jobs))
            payloads = [
                [(index, specs[index]) for index in order[at:at + chunksize]]
                for at in range(0, len(order), chunksize)
            ]
            self._ensure_pool()
            for _, solved in self.pool.map_chunks(presolve_chunk, payloads):
                for index, sizing in solved:
                    exec_specs[index] = dataclasses.replace(
                        specs[index], sizing=sizing
                    )
        else:
            context = self._parent_solver_context()
            for index in unsized:
                from repro.exec.taskspec import build_app

                sizing = build_app(specs[index]).sizing(context=context)
                exec_specs[index] = dataclasses.replace(
                    specs[index], sizing=sizing
                )
        return exec_specs

    def _parent_solver_context(self):
        if self._solver_context is None:
            from repro.rtc.sizing import SolverContext

            self._solver_context = SolverContext()
        return self._solver_context

    @staticmethod
    def _sizing_order(specs, pending):
        """Pending indices, stably grouped by sizing problem.

        Groups are ordered by first occurrence and indices stay sorted
        inside each group, so the ordering is a pure function of the
        spec list — chunk-mates share warm solver state without the
        schedule depending on timing.
        """
        first_seen: Dict[str, int] = {}
        for index in pending:
            first_seen.setdefault(specs[index].sizing_group(), index)
        return sorted(
            pending,
            key=lambda i: (first_seen[specs[i].sizing_group()], i),
        )

    def _chunksize(self, n: int, workers: int) -> int:
        """Tasks per chunk for a batch of ``n`` pending tasks.

        An explicit ``chunksize`` always wins.  Otherwise the EWMA of
        measured per-task latency sizes chunks to ``target_chunk_s``
        seconds of work (clamped so every worker gets at least one
        chunk); with no latency data yet (first batch ever) the static
        waves heuristic applies.
        """
        if self.chunksize is not None:
            return self.chunksize
        ewma = self.ewma_task_s
        if self.target_chunk_s is not None and ewma and ewma > 0:
            per_chunk = max(1, round(self.target_chunk_s / ewma))
            return max(1, min(per_chunk, -(-n // workers)))
        return max(1, -(-n // (workers * _CHUNK_WAVES)))

    def _observe_latency(self, wall_s: float) -> None:
        if self.ewma_task_s is None:
            self.ewma_task_s = wall_s
        else:
            self.ewma_task_s += _EWMA_ALPHA * (wall_s - self.ewma_task_s)

    def _ensure_pool(self) -> None:
        if self.pool is None:
            self.pool = WorkerPool(self.jobs)

    # -- execution paths ---------------------------------------------------

    def _run_inline(self, specs, exec_specs, pending, digests,
                    followers, results, stats) -> None:
        for index in pending:
            result = execute_task(exec_specs[index])
            self._complete(index, specs, digests, followers,
                           result, stats, results)

    def _run_pool(self, specs, exec_specs, pending, digests,
                  followers, results, stats) -> None:
        workers = min(self.jobs, len(pending))
        order = self._sizing_order(specs, pending)
        chunksize = self._chunksize(len(order), workers)
        stats.chunksize = chunksize
        chunks = [
            [(index, exec_specs[index])
             for index in order[at:at + chunksize]]
            for at in range(0, len(order), chunksize)
        ]
        self._ensure_pool()
        for _, chunk_results in self.pool.map_chunks(run_chunk, chunks):
            for index, result in chunk_results:
                self._merge_copy_stats(result)
                self._complete(index, specs, digests, followers,
                               result, stats, results)

    def _complete(self, index, specs, digests, followers,
                  result, stats, results) -> None:
        """Bookkeeping for one freshly executed leader: persist to the
        cache (under the original spec's digest), account it, and
        resolve every follower sharing its digest."""
        if self.cache is not None and digests[index] is not None:
            self.cache.put(digests[index], result)
        self._observe_latency(result.wall_time_s)
        self._finish(index, specs[index], result, stats, results,
                     executed=True)
        self._finish_followers(index, specs, followers, result,
                               stats, results)

    def _finish_followers(self, leader, specs, followers, result,
                          stats, results) -> None:
        for index in followers.get(leader, ()):
            self._finish(index, specs[index], result, stats, results,
                         deduped=True)

    def _finish(self, index, spec, result, stats, results, *,
                executed: bool = False, cache_hit: bool = False,
                deduped: bool = False) -> None:
        """Deliver one finished task: slot the result, stream it, and
        fire the progress callback with a monotone completed count."""
        results[index] = result
        self._stream(index, result, cache_hit=cache_hit, deduped=deduped)
        if executed:
            stats.executed += 1
            stats.task_wall_s.append(result.wall_time_s)
            if not result.ok:
                stats.errors += 1
        elif cache_hit:
            stats.cache_hits += 1
        self._done += 1
        if self.registry is not None:
            self.registry.counter("sweep.completed").inc()
            self.registry.histogram("sweep.task_wall_ms").observe(
                result.wall_time_s * 1e3
            )
        if self.progress is not None:
            self.progress(self._done, stats.tasks, spec, result)

    def _stream(self, index, result, cache_hit: bool = False,
                deduped: bool = False) -> None:
        """Streaming bookkeeping for one completed task: fold its
        mergeable snapshot into the fleet aggregate and append the
        completion record to the run ledger (when one is attached)."""
        if result.metrics:
            from repro.obs.sketch import MetricsSnapshot

            self.metrics.merge(MetricsSnapshot.from_dict(result.metrics))
        if self.ledger is not None:
            self.ledger.task_finished(index, result, cache_hit=cache_hit,
                                      deduped=deduped)

    def _merge_copy_stats(self, result) -> None:
        """Credit a pool worker's zero-copy counters to this process.

        Workers mutate their *own* ``COPY_STATS`` global; without this
        fold the parent's accounting would silently read zero for every
        parallel sweep.  Inline execution needs no merge — it already
        counted in-process — so only the pool path calls this.
        """
        if result.copy_stats:
            from repro.kpn.tokens import COPY_STATS

            COPY_STATS.merge(result.copy_stats)

    # -- bookkeeping -------------------------------------------------------

    def _flush_metrics(self, stats) -> None:
        if self.registry is None:
            return
        self.registry.counter("sweep.tasks").inc(stats.tasks)
        self.registry.counter("sweep.executed").inc(stats.executed)
        self.registry.counter("sweep.cache_hits").inc(stats.cache_hits)
        self.registry.counter("sweep.errors").inc(stats.errors)
        self.registry.counter("sweep.dedup.unique").inc(stats.unique)
        self.registry.counter("sweep.dedup.duplicates").inc(stats.deduped)
        self.registry.counter("sweep.presolve.solved").inc(stats.presolved)
        if self.pool is not None:
            pool_stats = self.pool.stats()
            self.registry.gauge("sweep.pool.forks").set(pool_stats["forks"])
            self.registry.gauge("sweep.pool.respawns").set(
                pool_stats["respawns"]
            )
            self.registry.gauge("sweep.pool.batches").set(
                pool_stats["batches"]
            )


def run_sweep(
    specs: Sequence[TaskSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    registry=None,
    chunksize: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    ledger=None,
    dedup: bool = True,
    executor: Optional[SweepExecutor] = None,
) -> List[TaskResult]:
    """One-shot convenience wrapper around :class:`SweepExecutor`.

    Pass an ``executor`` to reuse a persistent one (its warm pool and
    latency estimate survive; the other arguments are ignored in that
    case).  Otherwise a throwaway executor runs the sweep and its pool
    is torn down before returning — one-shots never leak workers.
    """
    if executor is not None:
        return executor.run(specs)
    with SweepExecutor(
        jobs=jobs,
        cache=cache,
        registry=registry,
        chunksize=chunksize,
        progress=progress,
        ledger=ledger,
        dedup=dedup,
    ) as one_shot:
        return one_shot.run(specs)
