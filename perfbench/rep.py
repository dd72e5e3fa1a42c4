"""One repetition of a benchmark workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last stdout line::

    python3 perfbench/rep.py --workload horizon --seed 7 --trace 0 \\
        --size full --spawned-at <time.monotonic() of the parent>

``setup_s`` runs from the parent's spawn instant to workload-ready
(interpreter start, imports, application construction); on Linux
``time.monotonic`` is one clock for every process.  ``--setup-only``
stops there.  The timed part follows the cold-start guard; the output
checks run after it, untimed.  Times are reported raw, with the
``time.monotonic`` intervals they cover, so that the parent can scale
them by the host speed sampled over the same intervals
(``calibrate.py``).  With ``--trace 1`` the layer spans of ``tracer.py``
wrap the timed part and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro

    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from {ROOT}/src")
    import layers
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    ready_at = time.monotonic()
    setup = {"setup_s": ready_at - args.spawned_at,
             "setup_at": [args.spawned_at, ready_at]}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    workload.guard()
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.monotonic()
    workload.run()
    ended = time.monotonic()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.unpatch()
    wall_s = ended - started

    outcome = workload.check()
    result = {
        **setup,
        "wall_s": wall_s,
        "timed_at": [started, ended],
        "cpu_s": (_cpu_s(self_after) - _cpu_s(self_before)
                  + _cpu_s(children_after) - _cpu_s(children_before)),
        # ru_maxrss is in KiB on Linux; the children figure is the
        # largest single reaped worker.
        "peak_rss_mb": (self_after.ru_maxrss
                        + children_after.ru_maxrss) / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "counts": outcome.counts,
    }
    if tracer is not None:
        result["layers"] = layers.metrics(
            tracer, wall_s, outcome.counts,
            getattr(workload, "ledger_bytes", 0),
        )
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
