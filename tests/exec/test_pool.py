"""Tests for the persistent WorkerPool: reuse, crash respawn, lifecycle."""

import os

import pytest

from repro.exec.pool import PoolCrashError, WorkerPool, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="worker pool needs the fork start method"
)


def _worker_pid(_payload):
    return os.getpid()


def _double(payload):
    return payload * 2


def _boom(payload):
    raise ValueError(f"bad payload {payload!r}")


def _crash_once(flag_path):
    """Kill this worker hard on first sight of the flag path."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write(str(os.getpid()))
        os._exit(1)
    return os.getpid()


def _crash_always(_payload):
    os._exit(1)


class TestMapChunks:
    def test_every_payload_delivered_once(self):
        with WorkerPool(2) as pool:
            delivered = dict(pool.map_chunks(_double, [1, 2, 3, 4, 5]))
        assert delivered == {0: 2, 1: 4, 2: 6, 3: 8, 4: 10}

    def test_empty_payload_list(self):
        with WorkerPool(1) as pool:
            assert list(pool.map_chunks(_double, [])) == []

    def test_task_exception_propagates_and_pool_survives(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="bad payload"):
                list(pool.map_chunks(_boom, ["x"]))
            # An ordinary task error must not cost the workers.
            assert pool.active
            assert dict(pool.map_chunks(_double, [7])) == {0: 14}


class TestPersistence:
    def test_workers_survive_across_batches(self):
        with WorkerPool(1) as pool:
            first = dict(pool.map_chunks(_worker_pid, [0]))
            second = dict(pool.map_chunks(_worker_pid, [0]))
        assert first[0] == second[0]  # same process, no refork
        assert pool.forks == 1
        assert pool.batches == 2

    def test_close_is_idempotent_and_restartable(self):
        pool = WorkerPool(1)
        assert not pool.active
        pool.close()
        pool.close()
        assert dict(pool.map_chunks(_double, [3])) == {0: 6}
        assert pool.active
        pool.close()
        assert not pool.active
        # A closed pool forks fresh workers on next use.
        assert dict(pool.map_chunks(_double, [4])) == {0: 8}
        assert pool.forks == 2
        pool.close()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestCrashRespawn:
    def test_crashed_worker_respawned_and_chunks_resubmitted(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        with WorkerPool(1) as pool:
            delivered = dict(pool.map_chunks(_crash_once, [flag]))
        assert 0 in delivered and delivered[0] > 0
        assert pool.respawns == 1
        assert os.path.exists(flag)

    def test_respawn_budget_exhaustion_raises(self):
        with WorkerPool(1, max_respawns=1) as pool:
            with pytest.raises(PoolCrashError, match="respawn budget"):
                list(pool.map_chunks(_crash_always, [1]))
        assert pool.respawns == 2  # initial crash + one respawned crash

    def test_lifetime_counters(self):
        with WorkerPool(2) as pool:
            list(pool.map_chunks(_double, [1]))
        assert pool.workers == 2
        assert pool.forks == 1
        assert pool.respawns == 0
        assert pool.batches == 1

