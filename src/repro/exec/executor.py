"""The process-pool sweep executor.

Experiments hand the executor a *list* of :class:`TaskSpec` and get back
the matching list of :class:`TaskResult`, in input order, regardless of
how (or whether) the tasks ran in parallel:

* ``jobs <= 1`` — inline serial execution, no pool, no IPC (the default;
  also the automatic fallback when the platform lacks ``fork``);
* ``jobs > 1`` — a persistent :class:`~repro.exec.pool.WorkerPool` fans
  chunks of tasks across cores.  The pool **survives across runs**: a
  campaign or table harness that calls :meth:`run` repeatedly pays fork
  startup once.  Close the executor (or use it as a context manager)
  when done; one-shot :func:`run_sweep` calls do this automatically.

Before anything executes, the batch is **scheduled**:

1. *Dedup* — pending specs are grouped by content digest; each unique
   digest executes exactly once per batch and duplicates share the
   leader's result (input order of the returned list is untouched).
2. *Bulk cache consult* — with a :class:`~repro.exec.cache.ResultCache`
   attached, the unique digests are looked up in one pass; hits (and
   their duplicates) never reach the pool.
3. *Chunking* — the remaining tasks are cut, in input order, into
   chunks of ``ceil(n / (workers * _CHUNK_WAVES))`` tasks.

Specs are run as handed over: every spec producer attaches a solved
sizing, and a spec without one is solved inside
:func:`~repro.exec.worker.execute_task`.

The executor's :class:`SweepStats` (``stats``) is the account of the
last sweep: task, execution, cache-hit, dedup and error counts plus
per-task wall times.  Each result's metrics snapshot is folded into the
executor's fleet-wide ``metrics`` registry, so campaign-scale
percentiles and counter totals exist without shipping raw series.
Progress is observable through an optional
:class:`~repro.obs.ledger.LedgerWriter`: every submission and
completion is appended to the run ledger as it happens.

Because every run is a pure function of its spec (seeded RNG only — see
``tests/experiments/test_runner.py::TestSeedPurity``), parallel, serial,
deduplicated and cached executions of the same sweep produce identical
results (see DESIGN.md §10 for the shared-result determinism rule).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.exec.cache import ResultCache
from repro.exec.pool import WorkerPool, fork_available
from repro.exec.results import TaskResult
from repro.exec.taskspec import TaskSpec
from repro.exec.worker import execute_task, run_chunk
from repro.obs.metrics import MetricsRegistry

#: Chunks per worker per batch: more spreads load across workers,
#: fewer amortises pickling and IPC.
_CHUNK_WAVES = 4


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
    errors: int = 0
    jobs: int = 1
    wall_time_s: float = 0.0
    task_wall_s: List[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "tasks": self.tasks,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "unique": self.unique,
            "errors": self.errors,
            "jobs": self.jobs,
            "wall_time_s": self.wall_time_s,
        }


class SweepExecutor:
    """Reusable sweep runner; ``stats`` describes the last :meth:`run`.

    ``dedup=False`` disables digest grouping (every spec executes even
    when identical to another).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        ledger=None,
        dedup: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.ledger = ledger
        self.dedup = dedup
        self.stats = SweepStats()
        #: The persistent worker pool (created lazily on the first
        #: parallel run; ``None`` until then and after :meth:`close`).
        self.pool: Optional[WorkerPool] = None
        # Fleet-wide aggregate over every result of the last run()
        # (cache hits included).
        self.metrics = MetricsRegistry()

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
        started = time.perf_counter()
        specs = list(specs)
        stats = SweepStats(tasks=len(specs), jobs=self.jobs)
        results: List[Optional[TaskResult]] = [None] * len(specs)
        self.metrics = MetricsRegistry()
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
                self._finish(index, hit, stats, results, cache_hit=True)
                self._finish_followers(index, followers, hit, stats,
                                       results)
            else:
                pending.append(index)

        if self.jobs > 1 and len(pending) > 1 and fork_available():
            self._run_pool(specs, pending, digests, followers, results,
                           stats)
        else:
            self._run_inline(specs, pending, digests, followers, results,
                             stats)

        stats.wall_time_s = time.perf_counter() - started
        self.stats = stats
        if self.ledger is not None:
            self.ledger.sweep_end(stats.as_dict())
        return results  # type: ignore[return-value]

    # -- execution paths ---------------------------------------------------

    def _run_inline(self, specs, pending, digests, followers, results,
                    stats) -> None:
        for index in pending:
            result = execute_task(specs[index])
            self._complete(index, digests, followers, result, stats,
                           results)

    def _run_pool(self, specs, pending, digests, followers, results,
                  stats) -> None:
        workers = min(self.jobs, len(pending))
        size = -(-len(pending) // (workers * _CHUNK_WAVES))
        chunks = [
            [(index, specs[index]) for index in pending[at:at + size]]
            for at in range(0, len(pending), size)
        ]
        if self.pool is None:
            self.pool = WorkerPool(self.jobs)
        for _, chunk_results in self.pool.map_chunks(run_chunk, chunks):
            for index, result in chunk_results:
                self._complete(index, digests, followers, result,
                               stats, results)

    def _complete(self, index, digests, followers, result, stats,
                  results) -> None:
        """Bookkeeping for one freshly executed leader: persist to the
        cache, account it, and resolve every follower sharing its
        digest."""
        if self.cache is not None and digests[index] is not None:
            self.cache.put(digests[index], result)
        self._finish(index, result, stats, results, executed=True)
        self._finish_followers(index, followers, result, stats, results)

    def _finish_followers(self, leader, followers, result, stats,
                          results) -> None:
        for index in followers.get(leader, ()):
            self._finish(index, result, stats, results, deduped=True)

    def _finish(self, index, result, stats, results, *,
                executed: bool = False, cache_hit: bool = False,
                deduped: bool = False) -> None:
        """Deliver one finished task: slot the result, account it in
        ``stats``, fold its metrics snapshot into the fleet aggregate
        and append the completion record to the run ledger (when one is
        attached)."""
        results[index] = result
        if executed:
            stats.executed += 1
            stats.task_wall_s.append(result.wall_time_s)
            if not result.ok:
                stats.errors += 1
        elif cache_hit:
            stats.cache_hits += 1
        if result.metrics:
            self.metrics.merge(MetricsRegistry.from_dict(result.metrics))
        if self.ledger is not None:
            self.ledger.task_finished(index, result, cache_hit=cache_hit,
                                      deduped=deduped)


def run_sweep(
    specs: Sequence[TaskSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    ledger=None,
    dedup: bool = True,
    executor: Optional[SweepExecutor] = None,
) -> List[TaskResult]:
    """One-shot convenience wrapper around :class:`SweepExecutor`.

    Pass an ``executor`` to reuse a persistent one (its pool survives;
    the other arguments are ignored in that case).  Otherwise a
    throwaway executor runs the sweep and its pool is torn down before
    returning — one-shots never leak workers.
    """
    if executor is not None:
        return executor.run(specs)
    with SweepExecutor(
        jobs=jobs,
        cache=cache,
        ledger=ledger,
        dedup=dedup,
    ) as one_shot:
        return one_shot.run(specs)
