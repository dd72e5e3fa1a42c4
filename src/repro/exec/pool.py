"""Persistent worker pool for campaign-scale sweeps.

A :class:`WorkerPool` is a fork-based process pool that **survives
across sweep batches**: the :class:`~repro.exec.executor.SweepExecutor`
that owns one keeps it alive from one ``run()`` to the next, so
campaign rounds and table sweeps pay fork startup once.  Workers fork
copy-on-write from the parent, inheriting its loaded modules and its
process-global RTC memos.

Lifecycle is explicit: :meth:`close` (or the context-manager form)
shuts the workers down; an unclosed pool is also torn down defensively
on garbage collection.  A **crashed worker** (``os._exit``, segfault,
OOM-kill) breaks the underlying ``ProcessPoolExecutor``; the pool then
respawns a fresh set of workers and transparently resubmits every chunk
that had not been delivered, up to ``max_respawns`` times per batch
(then :class:`PoolCrashError`).  Resubmission is safe because every
chunk is a pure function of its payload — a chunk that completed but
was not yet consumed when the pool broke merely re-executes to the
identical result.

The pool itself is task-agnostic: :meth:`map_chunks` ships arbitrary
``(fn, payload)`` work; the executor sends it task chunks
(:func:`repro.exec.worker.run_chunk`).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, List, Optional, Tuple


class PoolCrashError(RuntimeError):
    """Workers kept dying faster than the pool could respawn them."""


def fork_available() -> bool:
    """Whether this platform supports the fork start method the pool
    needs."""
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerPool:
    """A reusable fork-based process pool with crash respawn.

    ``workers`` is the pool size.  The pool starts lazily on first use.
    """

    def __init__(self, workers: int, max_respawns: int = 3) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.max_respawns = max_respawns
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Lifetime counters: crash respawns, finished batches, forks.
        self.respawns = 0
        self.batches = 0
        self.forks = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._pool is not None

    def start(self) -> None:
        """Fork the workers now (no-op when already running)."""
        if self._pool is not None:
            return
        context = multiprocessing.get_context("fork")
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context
        )
        self.forks += 1

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # defensive: unclosed pools still die
        try:
            self.close()
        except Exception:
            pass

    # -- execution ---------------------------------------------------------

    def map_chunks(
        self, fn: Callable[[Any], Any], payloads: List[Any]
    ) -> Iterator[Tuple[int, Any]]:
        """Run ``fn(payload)`` for every payload; yield ``(index,
        result)`` in completion order.

        A worker crash breaks the whole underlying pool; undelivered
        chunks are resubmitted to a respawned pool (``fn`` must be pure
        in its payload — re-execution yields the identical result).  An
        ordinary exception raised *by* ``fn`` propagates to the caller
        unchanged; the pool stays usable.
        """
        remaining = dict(enumerate(payloads))
        respawns_left = self.max_respawns
        while remaining:
            self.start()
            futures = {
                self._pool.submit(fn, payload): index
                for index, payload in remaining.items()
            }
            broken = False
            try:
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(
                        not_done, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        index = futures[future]
                        try:
                            result = future.result()
                        except BrokenProcessPool:
                            broken = True
                            continue
                        del remaining[index]
                        yield index, result
                    if broken:
                        break
            finally:
                for future in futures:
                    future.cancel()
            if broken:
                self.respawns += 1
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
                if respawns_left <= 0:
                    raise PoolCrashError(
                        f"worker pool crashed {self.respawns} time(s); "
                        f"respawn budget ({self.max_respawns}) exhausted"
                    )
                respawns_left -= 1
        self.batches += 1

    def __repr__(self) -> str:
        state = "active" if self.active else "idle"
        return (
            f"WorkerPool(workers={self.workers}, {state}, "
            f"batches={self.batches}, respawns={self.respawns})"
        )
