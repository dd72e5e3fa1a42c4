"""CI smoke check for the sweep executor's identity guarantees.

Runs a small Table 2 sweep three ways and fails loudly unless:

1. the ``--jobs N`` (default 2) parallel run produces **byte-identical**
   JSON to the inline serial run, and
2. a re-run against the cache the first run populated executes **zero**
   simulator runs while still reproducing the same JSON.

This is the executable form of the PR acceptance criteria — cheap
enough for every CI push, strict enough that any nondeterminism in the
worker path (RNG leakage, dict ordering, float formatting) trips it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import Optional, Sequence


def _table2_json(app, runs: int, warmup: int, executor=None) -> str:
    from repro.experiments.table2 import run_table2

    result = run_table2(app, runs=runs, warmup_tokens=warmup,
                        post_tokens=15, executor=executor)
    return json.dumps(result.as_dict(), sort_keys=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sweep-smoke",
        description="assert parallel == serial == cached for a small "
                    "Table 2 sweep",
    )
    parser.add_argument("--app", default="adpcm")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--warmup", type=int, default=40)
    args = parser.parse_args(argv)

    from repro.apps import ALL_APPLICATIONS
    from repro.apps.base import AppScale
    from repro.exec import ResultCache, SweepExecutor
    from repro.experiments.table2 import table2_specs

    cls = {c.name: c for c in ALL_APPLICATIONS}[args.app]
    app = cls(AppScale(), seed=42)

    serial = _table2_json(app, args.runs, args.warmup)
    with SweepExecutor(jobs=args.jobs) as executor:
        parallel = _table2_json(app, args.runs, args.warmup, executor)
    if serial != parallel:
        print(f"FAIL: jobs={args.jobs} JSON differs from serial")
        print(f"  serial:   {serial}")
        print(f"  parallel: {parallel}")
        return 1
    print(f"OK: jobs={args.jobs} Table 2 JSON byte-identical to serial "
          f"({len(serial)} bytes)")

    with tempfile.TemporaryDirectory(prefix="sweep-smoke-") as tmp:
        warm = _table2_json(app, args.runs, args.warmup,
                            SweepExecutor(cache=ResultCache(tmp)))
        executor = SweepExecutor(cache=ResultCache(tmp))
        specs = table2_specs(app, runs=args.runs,
                             warmup_tokens=args.warmup, post_tokens=15)
        executor.run(specs)
        if executor.stats.executed != 0:
            print(f"FAIL: cached re-run executed "
                  f"{executor.stats.executed} simulator runs (expected 0)")
            return 1
        cached = _table2_json(app, args.runs, args.warmup,
                              SweepExecutor(cache=ResultCache(tmp)))
        if not (cached == warm == serial):
            print("FAIL: cached replay JSON differs")
            return 1
    print(f"OK: cached re-run served all {len(specs)} tasks from cache, "
          "JSON identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
