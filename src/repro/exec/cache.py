"""On-disk content-addressed cache of executed task results.

Entries live under ``.repro-cache/`` (override with the
``REPRO_CACHE_DIR`` environment variable or the ``root`` parameter),
sharded by digest prefix::

    .repro-cache/ab/abcdef....pkl

Each entry is a pickle of ``{"schema": ..., "code": ..., "digest": ...,
"result": TaskResult}``.  The digest is the :meth:`TaskSpec.digest`
content hash, so a cache hit short-circuits the simulator entirely.
``code`` is :func:`code_digest`, a SHA-256 over every ``.py`` file of
the ``repro`` package: any source edit turns every stored entry into a
miss, so a cached result never outlives the code that produced it.  The
whole package is hashed rather than a hand-kept list of
result-affecting modules, because such a list can itself go stale.

Robustness rules (all covered by ``tests/exec/test_cache.py``):

* a corrupted / truncated / unreadable entry is **deleted and treated as
  a miss** — the run recomputes and overwrites it;
* a schema-version mismatch (:data:`CACHE_SCHEMA_VERSION` bump) is a
  miss, as is a source-digest mismatch (the package changed since the
  entry was stored) or a digest mismatch (defends against hand-renamed
  files); the entry is deleted and recomputed in place;
* writes are atomic (temp file + ``os.replace``), so concurrent sweeps
  sharing a cache directory never observe half-written entries;
* ``refresh=True`` ignores existing entries but still stores new ones
  (the ``--refresh`` escape hatch); disable caching entirely by passing
  ``cache=None`` to the executor (``--no-cache``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from repro.exec.results import TaskResult

#: Version of the on-disk entry format (including the TaskResult shape).
#: Bump whenever either changes; old entries then recompute in place.
#: v2: TaskResult grew ``metrics`` / ``worker`` (streaming snapshots).
CACHE_SCHEMA_VERSION = 2

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The running package's :func:`source_digest`, filled on first use.
_CODE_DIGEST: Optional[str] = None


def source_digest(package_dir: Union[str, Path]) -> str:
    """SHA-256 over the relative path and bytes of every ``.py`` file
    under ``package_dir``, in sorted path order."""
    package_dir = Path(package_dir)
    files = sorted(
        (path.relative_to(package_dir).as_posix(), path)
        for path in package_dir.rglob("*.py")
    )
    digest = hashlib.sha256()
    for name, path in files:
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def code_digest() -> str:
    """:func:`source_digest` of the running ``repro`` package, computed
    once per process on the first cache read or write."""
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        _CODE_DIGEST = source_digest(Path(__file__).resolve().parent.parent)
    return _CODE_DIGEST


class ResultCache:
    """Digest-keyed persistent store of :class:`TaskResult` objects."""

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        refresh: bool = False,
    ) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.refresh = refresh
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidated = 0

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.pkl"

    def get(self, digest: str) -> Optional[TaskResult]:
        """The stored result for ``digest``, or ``None`` on miss."""
        if self.refresh:
            self.misses += 1
            return None
        path = self._path(digest)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated, corrupted or unreadable entry: drop it and
            # recompute rather than crash the sweep.
            self._discard(path)
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA_VERSION
            or payload.get("code") != code_digest()
            or payload.get("digest") != digest
            or not isinstance(payload.get("result"), TaskResult)
        ):
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def get_many(
        self, digests: Iterable[str]
    ) -> Dict[str, TaskResult]:
        """Bulk lookup: ``{digest: result}`` for every digest that hits.

        The executor consults the cache once per batch with the full
        set of unique pending digests; misses are simply absent from
        the returned mapping.  Duplicate digests in the input cost one
        lookup (and count one hit/miss) each time they appear — pass
        unique digests for exact counters.
        """
        found: Dict[str, TaskResult] = {}
        for digest in digests:
            result = self.get(digest)
            if result is not None:
                found[digest] = result
        return found

    def put(self, digest: str, result: TaskResult) -> None:
        """Store ``result`` under ``digest`` (atomic replace)."""
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "code": code_digest(),
            "digest": digest,
            "result": result,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1

    def _discard(self, path: Path) -> None:
        self.invalidated += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def stats(self) -> Dict[str, int]:
        """Hit/miss/store counters for reports and tests."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidated": self.invalidated,
        }

    # -- size accounting ---------------------------------------------------

    def _entries(self):
        """All entry files as ``(mtime, size, path)``, oldest first.

        In-flight temp files are skipped (they are renamed or unlinked
        by their writer); files that vanish mid-scan (a concurrent
        prune) are skipped too.
        """
        entries = []
        if not self.root.is_dir():
            return entries
        for path in self.root.glob("*/*.pkl"):
            if path.name.startswith(".tmp-"):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda entry: (entry[0], str(entry[2])))
        return entries

    def size_stats(self) -> Dict[str, int]:
        """On-disk footprint: entry count and total bytes."""
        entries = self._entries()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for _, _, path in self._entries():
            try:
                os.unlink(path)
            except OSError:
                continue
            removed += 1
        self._sweep_empty_shards()
        return removed

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Evict oldest-first until the cache fits in ``max_bytes``.

        Eviction order is modification time (a store refreshes its
        entry's mtime via the atomic replace, so recently re-stored
        results survive).  Returns ``{"removed": n, "bytes": remaining}``.
        """
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        removed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
        self._sweep_empty_shards()
        return {"removed": removed, "bytes": total}

    def _sweep_empty_shards(self) -> None:
        if not self.root.is_dir():
            return
        for shard in self.root.iterdir():
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when empty
                except OSError:
                    pass

    def __repr__(self) -> str:
        return (
            f"ResultCache(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )
