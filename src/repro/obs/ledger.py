"""The structured run ledger (``repro.ledger/1``).

An append-only JSONL journal of everything a sweep or campaign does,
written *while it runs* so progress is observable from outside the
process (``repro top``, the ``--status-port`` endpoint) and replayable
after it finishes or dies:

* a ``header`` record first (schema tag, writer fingerprint, free-form
  meta), then one record per observable step: ``sweep-start``,
  ``task-submitted``, ``task-finished`` (with the worker's mergeable
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, injection/detection
  instants, cache-hit flag and worker fingerprint), ``sweep-end``,
  and the campaign framing ``campaign-start`` / ``scenario-verdict`` /
  ``campaign-end``;
* every record is one JSON line; lines reach the file in **single
  O_APPEND writes** (one record or a batch of whole records per write,
  never a fragment), so concurrent writers (e.g. a campaign and a
  nested shrink sweep) interleave whole records rather than shearing
  bytes.  Hot records (task submissions/completions, verdicts) are
  buffered and flushed on run boundaries, buffer size, or a staleness
  interval (:data:`FLUSH_INTERVAL_S`) — streaming costs a bounded
  handful of syscalls per sweep instead of two per task;
* :func:`read_ledger` is the replay half: it tolerates a truncated
  final line (the writer died mid-record), foreign garbage lines and a
  schema-version mismatch, degrading to warnings plus a partial replay
  — mirroring the exec result-cache corruption policy.

The ledger is pure observability: nothing in it feeds back into
execution, so streaming on/off cannot change simulation behaviour
(golden-trace byte-identity is asserted with streaming enabled).
"""

from __future__ import annotations

import io
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry

#: Schema identifier written in the header record of every ledger.
LEDGER_SCHEMA = "repro.ledger/1"

#: Record types the replay understands (anything else warns + skips).
RECORD_TYPES = (
    "header",
    "sweep-start",
    "task-submitted",
    "task-finished",
    "sweep-end",
    "campaign-start",
    "scenario-verdict",
    "campaign-end",
    "mttf-start",
    "mttf-cycle",
    "mttf-end",
)


def writer_fingerprint() -> Dict[str, Any]:
    """Identity of the writing process (embedded in header records)."""
    return {
        "pid": os.getpid(),
        "host": platform.node(),
        "python": platform.python_version(),
    }


#: Shared compact encoder: building a ``JSONEncoder`` per record is
#: measurable on the streaming hot path (two records per task).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Record types written through to disk immediately: run and phase
#: boundaries, whose prompt visibility the live surface relies on.
#: Everything else (the per-task hot records) rides the flush policy.
_FLUSH_TYPES = frozenset((
    "header",
    "sweep-start",
    "sweep-end",
    "campaign-start",
    "campaign-end",
    "mttf-start",
    "mttf-end",
))

#: Default maximum staleness of buffered hot records, seconds.  A
#: ``repro top`` watcher sees completions at most this far behind; a
#: writer dying mid-run loses at most this much of the tail (the replay
#: already tolerates a ragged tail by design).
FLUSH_INTERVAL_S = 0.25

#: Flush when the buffered batch grows past this many bytes.
_FLUSH_BYTES = 8192


class LedgerWriter:
    """Append-only writer of one ``repro.ledger/1`` JSONL file.

    Opens the file in append mode and emits a ``header`` record only
    when this writer starts the file — a second writer appending to an
    existing ledger (interleaved-writer mode) skips the header, so a
    replay sees exactly one.
    """

    def __init__(
        self,
        path: Union[str, Path],
        meta: Optional[Dict[str, Any]] = None,
        flush_interval: float = FLUSH_INTERVAL_S,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.flush_interval = flush_interval
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        # Unbuffered binary append: each write() is one O_APPEND syscall
        # of one-or-more *whole* lines — no stdio layer re-fragmenting
        # the batch boundaries we choose here.
        self._handle: Optional[io.RawIOBase] = open(
            self.path, "ab", buffering=0
        )
        self._buffer: List[bytes] = []
        self._buffered_bytes = 0
        self._last_flush = time.monotonic()
        self.records_written = 0
        if fresh:
            self.emit("header", schema=LEDGER_SCHEMA,
                      writer=writer_fingerprint(), meta=meta or {})

    # -- raw emission -------------------------------------------------------

    def emit(self, record_type: str, **fields: Any) -> None:
        """Append one record (a no-op after :meth:`close`)."""
        if self._handle is None:
            return
        record = {"type": record_type, "ts": time.time()}
        record.update(fields)
        line = (_ENCODER.encode(record) + "\n").encode("utf-8")
        self._buffer.append(line)
        self._buffered_bytes += len(line)
        self.records_written += 1
        if (
            record_type in _FLUSH_TYPES
            or self.flush_interval <= 0
            or self._buffered_bytes >= _FLUSH_BYTES
            or time.monotonic() - self._last_flush >= self.flush_interval
        ):
            self.flush()

    def flush(self) -> None:
        """Write every buffered record to disk in one O_APPEND call."""
        if self._handle is not None and self._buffer:
            self._handle.write(b"".join(self._buffer))
            self._buffer.clear()
            self._buffered_bytes = 0
        self._last_flush = time.monotonic()

    # -- typed convenience emitters ----------------------------------------

    def sweep_start(self, tasks: int, jobs: int) -> None:
        self.emit("sweep-start", tasks=tasks, jobs=jobs)

    def task_submitted(self, task: int, kind: str,
                       digest: Optional[str] = None) -> None:
        self.emit("task-submitted", task=task, kind=kind, digest=digest)

    def task_finished(
        self,
        task: int,
        result,
        cache_hit: bool = False,
        deduped: bool = False,
    ) -> None:
        """Record one completed task from its ``TaskResult``.

        ``deduped=True`` marks a task that shared another task's result
        (same content digest within the batch) rather than executing —
        its record repeats the leader's result fields.
        """
        detections = [
            {"t": record.time, "site": record.site,
             "mechanism": record.mechanism}
            for record in result.detections
        ]
        self.emit(
            "task-finished",
            task=task,
            ok=result.ok,
            error=result.error,
            cache_hit=cache_hit,
            deduped=deduped,
            wall_s=result.wall_time_s,
            worker=result.worker,
            injected_at=result.injected_at,
            detections=detections,
            metrics=result.metrics,
        )

    def sweep_end(self, stats: Dict[str, Any]) -> None:
        self.emit("sweep-end", stats=stats)

    def campaign_start(self, seed: int, budget: int, scenarios: int,
                       oracles: List[str]) -> None:
        self.emit("campaign-start", seed=seed, budget=budget,
                  scenarios=scenarios, oracles=oracles)

    def scenario_verdict(self, index: int, digest: str, label: str,
                         verdict: str,
                         violations: List[Dict[str, str]]) -> None:
        self.emit("scenario-verdict", index=index, digest=digest,
                  label=label, verdict=verdict, violations=violations)

    def campaign_end(self, digest: str, verdicts: Dict[str, int],
                     ok: bool, stream: Dict[str, Any]) -> None:
        self.emit("campaign-end", digest=digest, verdicts=verdicts,
                  ok=ok, stream=stream)

    def mttf_start(self, seed: int, max_cycles: int,
                   recovery: Dict[str, Any]) -> None:
        self.emit("mttf-start", seed=seed, max_cycles=max_cycles,
                  recovery=recovery)

    def mttf_cycle(self, cycle: int, verdict: str,
                   ttf_ms: Optional[float], mttr_ms: Optional[float],
                   availability: Optional[float]) -> None:
        """One inject→detect→recover cycle; ``availability`` is the
        running estimate after this cycle."""
        self.emit("mttf-cycle", cycle=cycle, verdict=verdict,
                  ttf_ms=ttf_ms, mttr_ms=mttr_ms,
                  availability=availability)

    def mttf_end(self, cycles: int, mttf_ms: Optional[float],
                 mttr_ms: Optional[float],
                 availability: Optional[float], converged: bool,
                 ok: bool) -> None:
        self.emit("mttf-end", cycles=cycles, mttf_ms=mttf_ms,
                  mttr_ms=mttr_ms, availability=availability,
                  converged=converged, ok=ok)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"LedgerWriter({self.path}, {self.records_written} records)"


@dataclass
class LedgerReplay:
    """Everything :func:`read_ledger` recovered from one ledger file."""

    path: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.warnings

    def by_type(self, record_type: str) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("type") == record_type]

    def __repr__(self) -> str:
        return (f"LedgerReplay({self.path!r}, {len(self.records)} records, "
                f"{len(self.warnings)} warning(s))")


def read_ledger(path: Union[str, Path]) -> LedgerReplay:
    """Parse one ledger file, tolerating every corruption the writer's
    failure modes can produce.

    * **truncated final line** (writer died mid-record): warn, drop it;
    * **undecodable interior line** (a foreign writer sheared a record):
      warn, skip it, keep replaying;
    * **schema-version mismatch** in the header: warn, then still
      replay every record whose type is known — a newer ledger degrades
      to a partial view instead of an error;
    * **missing header**: warn and replay what is there;
    * **foreign metrics payload** on a task record: warn when the status
      is built and leave the payload out of the merged metrics.
    """
    path = Path(path)
    replay = LedgerReplay(path=str(path))
    try:
        raw = path.read_bytes()
    except OSError as error:
        replay.warnings.append(f"unreadable ledger: {error}")
        return replay
    if not raw:
        replay.warnings.append("empty ledger")
        return replay

    lines = raw.split(b"\n")
    truncated_tail = lines[-1] != b""
    if not truncated_tail:
        lines = lines[:-1]
    for number, line in enumerate(lines, start=1):
        final = number == len(lines)
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
        except (ValueError, UnicodeDecodeError) as error:
            if final and truncated_tail:
                replay.warnings.append(
                    f"line {number}: truncated final record dropped"
                )
            else:
                replay.warnings.append(
                    f"line {number}: undecodable record skipped ({error})"
                )
            continue
        record_type = record.get("type")
        if record_type == "header":
            schema = record.get("schema")
            if schema != LEDGER_SCHEMA:
                replay.warnings.append(
                    f"line {number}: ledger schema {schema!r} != "
                    f"{LEDGER_SCHEMA!r}; replaying best-effort"
                )
        elif record_type not in RECORD_TYPES:
            replay.warnings.append(
                f"line {number}: unknown record type {record_type!r} "
                "skipped"
            )
            continue
        replay.records.append(record)

    if not replay.by_type("header"):
        replay.warnings.append("no header record (foreign or pre-schema "
                               "file); replaying best-effort")
    return replay


def _task_metrics(replay: LedgerReplay
                  ) -> Iterator[Tuple[Dict[str, Any], MetricsRegistry]]:
    """``(record, metrics)`` per ``task-finished`` record.  ``metrics`` is
    empty when the record carries none or carries a payload
    :meth:`MetricsRegistry.from_dict` rejects; a rejection adds a replay
    warning."""
    for record in replay.by_type("task-finished"):
        payload = record.get("metrics")
        metrics = MetricsRegistry()
        if payload:
            try:
                metrics = MetricsRegistry.from_dict(payload)
            except ValueError as error:
                replay.warnings.append(
                    f"task {record.get('task')!r}: metrics payload "
                    f"skipped ({error})"
                )
        yield record, metrics


def merged_snapshot(replay: LedgerReplay) -> MetricsRegistry:
    """Fleet-wide :class:`MetricsRegistry` merged over every
    ``task-finished`` record (cache hits included — they carry the
    original execution's snapshot)."""
    merged = MetricsRegistry()
    for _record, metrics in _task_metrics(replay):
        merged.merge(metrics)
    return merged


def build_status(replay: LedgerReplay) -> Dict[str, Any]:
    """Reduce a replay to the live status document.

    This is the one shape every surface consumes: ``repro top`` renders
    it, ``/status`` serves it as JSON, and the CI campaign-smoke job
    uploads it as the final status artifact.
    """
    records = replay.records
    first_ts = records[0]["ts"] if records else None
    last_ts = records[-1]["ts"] if records else None
    elapsed = (last_ts - first_ts) if records else None

    submitted = len(replay.by_type("task-submitted"))
    finished = cache_hits = deduped = errors = 0
    merged = MetricsRegistry()
    workers: Dict[str, Dict[str, float]] = {}
    for record, metrics in _task_metrics(replay):
        finished += 1
        if record.get("cache_hit"):
            cache_hits += 1
        if record.get("ok") is False:
            errors += 1
        merged.merge(metrics)
        if record.get("deduped"):
            # A shared-result duplicate repeats its leader's wall time
            # and worker identity; counting it again would inflate that
            # worker's throughput.
            deduped += 1
            continue
        worker = record.get("worker") or {}
        key = str(worker.get("pid", "?"))
        stat = workers.setdefault(
            key, {"tasks": 0, "events": 0, "wall_s": 0.0}
        )
        stat["tasks"] += 1
        stat["wall_s"] += record.get("wall_s") or 0.0
        stat["events"] += metrics.counters.get("sim.events", 0)

    for stat in workers.values():
        stat["events_per_sec"] = (
            stat["events"] / stat["wall_s"] if stat["wall_s"] else None
        )

    total_tasks = None
    for record in replay.by_type("sweep-start"):
        total_tasks = (total_tasks or 0) + record.get("tasks", 0)

    verdicts: Dict[str, int] = {}
    for record in replay.by_type("scenario-verdict"):
        verdict = record.get("verdict", "?")
        verdicts[verdict] = verdicts.get(verdict, 0) + 1

    campaign: Optional[Dict[str, Any]] = None
    starts = replay.by_type("campaign-start")
    if starts:
        start = starts[-1]
        campaign = {
            "seed": start.get("seed"),
            "budget": start.get("budget"),
            "scenarios": start.get("scenarios"),
            "judged": len(replay.by_type("scenario-verdict")),
            "digest": None,
            "ok": None,
        }
    ends = replay.by_type("campaign-end")
    if ends:
        end = ends[-1]
        campaign = campaign or {}
        campaign["digest"] = end.get("digest")
        campaign["ok"] = end.get("ok")
        campaign["verdicts"] = end.get("verdicts")

    mttf: Optional[Dict[str, Any]] = None
    mttf_starts = replay.by_type("mttf-start")
    mttf_cycles = replay.by_type("mttf-cycle")
    if mttf_starts:
        start = mttf_starts[-1]
        last_cycle = mttf_cycles[-1] if mttf_cycles else {}
        mttf = {
            "seed": start.get("seed"),
            "max_cycles": start.get("max_cycles"),
            "cycles": len(mttf_cycles),
            "availability": last_cycle.get("availability"),
            "mttf_ms": None,
            "mttr_ms": None,
            "converged": None,
            "ok": None,
        }
    mttf_ends = replay.by_type("mttf-end")
    if mttf_ends:
        end = mttf_ends[-1]
        mttf = mttf or {}
        mttf.update({
            "cycles": end.get("cycles"),
            "mttf_ms": end.get("mttf_ms"),
            "mttr_ms": end.get("mttr_ms"),
            "availability": end.get("availability"),
            "converged": end.get("converged"),
            "ok": end.get("ok"),
        })

    complete = bool(ends) or bool(mttf_ends) or (
        not starts and not mttf_starts
        and bool(replay.by_type("sweep-end"))
    )

    eta_s = None
    done_fraction = None
    if total_tasks:
        done_fraction = finished / total_tasks
        remaining = total_tasks - finished
        if finished and elapsed and remaining > 0:
            eta_s = elapsed * remaining / finished
        elif remaining == 0:
            eta_s = 0.0

    snapshot = merged.snapshot()
    return {
        "schema": LEDGER_SCHEMA,
        "path": replay.path,
        "records": len(records),
        "warnings": list(replay.warnings),
        "complete": complete,
        "progress": {
            "tasks": total_tasks,
            "submitted": submitted,
            "finished": finished,
            "cache_hits": cache_hits,
            "deduped": deduped,
            "errors": errors,
            "done_fraction": done_fraction,
            "elapsed_s": elapsed,
            "eta_s": eta_s,
        },
        "verdicts": verdicts,
        "campaign": campaign,
        "mttf": mttf,
        "workers": workers,
        "percentiles": merged.percentile_digests(),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
    }


def read_status(path: Union[str, Path]) -> Dict[str, Any]:
    """One-call convenience: replay ``path`` and build its status."""
    return build_status(read_ledger(path))
