"""Tests for the on-disk content-addressed result cache."""

import pickle
import shutil
from pathlib import Path

import pytest

import repro
from repro.exec import ResultCache, TaskResult
from repro.exec import cache as cache_module
from repro.exec.cache import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA_VERSION,
    code_digest,
    source_digest,
)


DIGEST = "ab" + "0" * 62


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _result(**kwargs):
    return TaskResult(kind="reference", value_hashes=["x", "y"], **kwargs)


class TestRoundTrip:
    def test_miss_then_hit(self, cache):
        assert cache.get(DIGEST) is None
        cache.put(DIGEST, _result())
        hit = cache.get(DIGEST)
        assert hit is not None
        assert hit.value_hashes == ["x", "y"]
        assert cache.stats() == {
            "hits": 1, "misses": 1, "stores": 1, "invalidated": 0,
        }

    def test_refresh_ignores_but_stores(self, cache):
        cache.put(DIGEST, _result())
        refreshing = ResultCache(cache.root, refresh=True)
        assert refreshing.get(DIGEST) is None
        refreshing.put(DIGEST, _result(stalls=3))
        assert ResultCache(cache.root).get(DIGEST).stalls == 3

    def test_distinct_digests_do_not_collide(self, cache):
        other = "cd" + "1" * 62
        cache.put(DIGEST, _result(stalls=1))
        cache.put(other, _result(stalls=2))
        assert cache.get(DIGEST).stalls == 1
        assert cache.get(other).stalls == 2

    def test_env_var_sets_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "via-env"))
        cache = ResultCache()
        cache.put(DIGEST, _result())
        assert (tmp_path / "via-env").exists()
        assert cache.get(DIGEST) is not None


class TestRecovery:
    def test_corrupted_entry_is_miss_and_deleted(self, cache):
        cache.put(DIGEST, _result())
        path = cache._path(DIGEST)
        path.write_bytes(b"not a pickle")
        assert cache.get(DIGEST) is None
        assert not path.exists()
        assert cache.invalidated == 1
        # the sweep recomputes and overwrites:
        cache.put(DIGEST, _result())
        assert cache.get(DIGEST) is not None

    def test_truncated_entry_is_miss(self, cache):
        cache.put(DIGEST, _result())
        path = cache._path(DIGEST)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(DIGEST) is None

    def test_schema_version_mismatch_invalidates(self, cache):
        cache.put(DIGEST, _result())
        path = cache._path(DIGEST)
        payload = pickle.loads(path.read_bytes())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        assert cache.get(DIGEST) is None
        assert not path.exists()

    def test_digest_mismatch_invalidates(self, cache):
        other = "cd" + "1" * 62
        cache.put(other, _result())
        # hand-rename the entry under a different digest
        target = cache._path(DIGEST)
        target.parent.mkdir(parents=True, exist_ok=True)
        cache._path(other).rename(target)
        assert cache.get(DIGEST) is None

    def test_wrong_payload_type_invalidates(self, cache):
        path = cache._path(DIGEST)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({
            "schema": CACHE_SCHEMA_VERSION,
            "digest": DIGEST,
            "result": "not a TaskResult",
        }))
        assert cache.get(DIGEST) is None

    def test_no_temp_files_left_behind(self, cache):
        cache.put(DIGEST, _result())
        leftovers = [
            p for p in cache.root.rglob("*") if p.name.startswith(".tmp-")
        ]
        assert leftovers == []


class TestCodeIdentity:
    """Entries are stamped with a digest of the package source."""

    def test_code_digest_is_the_running_package_source(self):
        package = Path(repro.__file__).resolve().parent
        assert code_digest() == source_digest(package)

    def test_entries_carry_the_code_digest(self, cache):
        cache.put(DIGEST, _result())
        payload = pickle.loads(cache._path(DIGEST).read_bytes())
        assert payload["code"] == code_digest()

    def test_one_byte_source_edit_turns_entry_into_miss(
        self, cache, tmp_path, monkeypatch
    ):
        tree = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).resolve().parent, tree)
        before = source_digest(tree)
        monkeypatch.setattr(cache_module, "_CODE_DIGEST", before)
        cache.put(DIGEST, _result())
        assert cache.get(DIGEST) is not None

        module = tree / "exec" / "worker.py"
        source = bytearray(module.read_bytes())
        source[0] ^= 0x01  # one byte: '"' -> '#'
        module.write_bytes(bytes(source))
        after = source_digest(tree)
        assert after != before
        monkeypatch.setattr(cache_module, "_CODE_DIGEST", after)
        assert cache.get(DIGEST) is None
        assert cache.invalidated == 1
        assert not cache._path(DIGEST).exists()
        # The sweep recomputes and overwrites under the new digest.
        cache.put(DIGEST, _result(stalls=5))
        assert cache.get(DIGEST).stalls == 5


def _digest(i):
    return f"{i:02x}" * 32


class TestBulkLookup:
    def test_get_many_partitions_hits_and_misses(self, cache):
        cache.put(_digest(1), _result(stalls=1))
        cache.put(_digest(2), _result(stalls=2))
        found = cache.get_many([_digest(1), _digest(2), _digest(3)])
        assert set(found) == {_digest(1), _digest(2)}
        assert found[_digest(1)].stalls == 1
        assert found[_digest(2)].stalls == 2

    def test_get_many_empty(self, cache):
        assert cache.get_many([]) == {}


class TestSizeAccounting:
    def test_size_stats_counts_entries_and_bytes(self, cache):
        assert cache.size_stats() == {"entries": 0, "bytes": 0}
        cache.put(_digest(1), _result())
        cache.put(_digest(2), _result())
        stats = cache.size_stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0

    def test_clear_removes_everything(self, cache):
        for i in range(1, 4):
            cache.put(_digest(i), _result())
        assert cache.clear() == 3
        assert cache.size_stats() == {"entries": 0, "bytes": 0}
        assert cache.get(_digest(1)) is None
        # Shard directories are swept along with their entries.
        assert list(cache.root.glob("*/")) == []

    def test_clear_empty_cache(self, cache):
        assert cache.clear() == 0

    def test_prune_evicts_oldest_first(self, cache):
        import os
        import time

        for i in range(1, 4):
            cache.put(_digest(i), _result())
            # Make mtime ordering explicit and platform-independent.
            stamp = time.time() - (10 - i)
            os.utime(cache._path(_digest(i)), (stamp, stamp))
        entry_bytes = cache._path(_digest(1)).stat().st_size
        report = cache.prune(max_bytes=2 * entry_bytes)
        assert report["removed"] == 1
        assert report["bytes"] <= 2 * entry_bytes
        # The oldest entry went; the two newest survive.
        assert cache.get(_digest(1)) is None
        assert cache.get(_digest(2)) is not None
        assert cache.get(_digest(3)) is not None

    def test_prune_noop_when_under_budget(self, cache):
        cache.put(_digest(1), _result())
        report = cache.prune(max_bytes=1 << 30)
        assert report["removed"] == 0
        assert cache.get(_digest(1)) is not None

    def test_prune_to_zero_clears(self, cache):
        cache.put(_digest(1), _result())
        cache.put(_digest(2), _result())
        report = cache.prune(max_bytes=0)
        assert report["removed"] == 2
        assert report["bytes"] == 0
