"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the program from the outside: each
wrapped call opens a span, and when it returns the tracer credits the
span's duration, minus the time its child spans covered, to the span's
name as *self time*.  Nothing under ``src/`` is edited; wrappers replace
the attribute on the defining class or module (and on every module that
imported the function by name), so every later call goes through them.

Two kinds of span exist:

* *recorded* spans (coarse calls: a simulation run, a sizing, a sweep)
  are kept in memory as ``(id, name, start, end, parent, self)`` records
  and written out by :meth:`Tracer.dump` when the run ends;
* *hot* spans (per-token channel polls, codec calls, timeline
  transitions, ledger emits) are only aggregated per name.  A horizon
  run makes about a million of them; keeping each as a record would cost
  more memory than the run it measures.

Both kinds are subtracted from their parent's self time.

The tracer disables itself in forked children: pool workers inherit the
wrappers, but their spans would die with them, so in a child every
wrapper calls straight through.  Work inside workers is accounted from
the per-task wall times the executor returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Collects spans and per-name aggregates for one process."""

    def __init__(self) -> None:
        self.enabled = True
        #: One frame per open span: ``[child_seconds, record_id]``
        #: (``record_id`` is ``None`` for hot spans).
        self._stack: List[list] = []
        self.records: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Values summed from call results (bytes, events, task times).
        self.sums: Dict[str, float] = defaultdict(float)
        self._restore: List[Callable[[], None]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, record: bool,
             after: Optional[Callable[..., Dict[str, float]]] = None
             ) -> Callable:
        """A traced stand-in for ``fn``.

        ``after(result, args, kwargs)`` may return values to add to
        :attr:`sums`; it runs outside the span's timed interval.
        """
        stack = self._stack
        records = self.records
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        sums = self.sums
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            record_id = None
            if record:
                record_id = len(records)
                records.append(None)
            frame = [0.0, record_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                self_s[name] += own
                total_s[name] += duration
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if record_id is not None:
                    parent = next(
                        (f[1] for f in reversed(stack) if f[1] is not None),
                        None,
                    )
                    records[record_id] = (
                        record_id, name, start, end, parent, own
                    )
            if after is not None:
                for key, value in after(result, args, kwargs).items():
                    sums[key] += value
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, record: bool,
              after: Optional[Callable[..., Dict[str, float]]] = None
              ) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``owner`` is a class (the method is replaced once) or a module,
        in which case every loaded module that imported the same function
        object under the same name is patched too.
        """
        original = getattr(owner, attr)
        traced = self.wrap(name, original, record, after)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                module for module in list(sys.modules.values())
                if module is not None
                and vars(module).get(attr) is original
            ]
        for target in targets:
            setattr(target, attr, traced)
            self._restore.append(
                functools.partial(setattr, target, attr, original)
            )

    def unpatch(self) -> None:
        """Put every original function back."""
        while self._restore:
            self._restore.pop()()

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the recorded spans and the per-name aggregates as JSON."""
        keys = ("id", "name", "start", "end", "parent", "self_s")
        body = {
            "spans": [dict(zip(keys, span)) for span in self.records],
            "aggregates": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(body, handle)
