"""End-to-end benchmark of the repro command-line workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload media-cold --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):
``media-cold``, ``campaign`` and ``horizon``.

The benchmark repeats the workload, each repetition in a fresh
interpreter (``rep.py``) so that every process-global memo starts empty
as it does for a CLI invocation, until ``--seconds`` are used, and
reports medians over the repetitions.  Times are scaled by the host
speed sampled while they were measured (``calibrate.py``).  Between
repetitions it starts the workload's set-up alone once more, so
``setup_s`` is a median over about twice as many samples.  Every
repetition checks its outputs and prints its deterministic counts, which
must agree across repetitions.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead (traced minus untraced
``wall_s``).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every repetition ran; 1 when one crashed or timed
out; 2 when the checkout holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import Samplers, scale  # noqa: E402
from layers import UNITS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

#: Fewest repetitions a run makes, whatever ``--seconds`` says.
MIN_REPS = 3
#: Every run ends within this many seconds (the limit is 180).
HARD_LIMIT_S = 170.0

#: End-to-end metrics: name -> (unit, repetition field or ratio).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "tokens_per_s": "1/s",
    "events_per_s": "1/s",
    "ops_per_s": "1/s",
}


def _spawn(args, trace: int, setup_only: bool,
           timeout: float) -> Optional[dict]:
    """Run one repetition under host-speed samplers; its JSON result with
    ``setup_scale``/``timed_scale`` added, or ``None`` if it failed."""
    cpus = sorted(os.sched_getaffinity(0))
    if not WORKLOADS[args.workload].parallel:
        # One process: pin it, and sample the vCPU it runs on.
        cpus = cpus[-1:]
    command = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(trace), "--size", args.size,
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    samplers = Samplers(cpus)
    try:
        process = subprocess.Popen(
            command + ["--spawned-at", repr(time.monotonic())],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        try:
            out, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The session holds the repetition and any pool workers.
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            print(f"repetition timed out after {timeout:.0f} s",
                  file=sys.stderr)
            return None
    finally:
        samples = samplers.stop()
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines or not samples:
        print(f"repetition exited with {process.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["setup_scale"] = scale(samples, *result["setup_at"])
    if not setup_only:
        result["timed_scale"] = scale(samples, *result["timed_at"])
    return result


def _end_to_end(reps: List[dict], setups: List[dict]) -> Dict[str, dict]:
    """Medians over the repetitions of times scaled to the reference
    host's speed (see ``calibrate.py``), and of rates over those."""
    def wall(rep: dict) -> float:
        return rep["wall_s"] * rep["timed_scale"]

    def rate(amount) -> float:
        return median([amount(rep) / wall(rep) for rep in reps])

    values = {
        "wall_s": median([wall(rep) for rep in reps]),
        "setup_s": median([rep["setup_s"] * rep["setup_scale"]
                            for rep in setups]),
        "cpu_s": median([rep["cpu_s"] * rep["timed_scale"]
                          for rep in reps]),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
        "tokens_per_s": rate(lambda rep: rep["counts"]["tokens"]),
        "events_per_s": rate(lambda rep: rep["counts"]["sim.events"]),
        "ops_per_s": rate(lambda rep: rep["attempted"]),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def _per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, dict]:
    metrics = {
        name: {"value": median([rep["layers"][name] for rep in traced]),
               "unit": UNITS[name]}
        for name in traced[0]["layers"]
    }
    traced_wall = median([rep["wall_s"] * rep["timed_scale"]
                           for rep in traced])
    untraced_wall = median([rep["wall_s"] * rep["timed_scale"]
                             for rep in untraced])
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall,
                                   "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repro end-to-end benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' runs the self-test size")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no src/repro package under {ROOT}: nothing to benchmark",
              file=sys.stderr)
        return 2

    began = time.monotonic()
    deadline = began + args.seconds

    def remaining() -> float:
        return began + HARD_LIMIT_S - time.monotonic()

    # The first start in a checkout compiles bytecode, which users do not
    # pay on every run: discard it.
    crashed = _spawn(args, 0, True, remaining()) is None
    reps: List[dict] = []
    setups: List[dict] = []
    durations: List[float] = []
    while not crashed:
        trace = len(reps) % 2 if args.trace else 0
        started = time.monotonic()
        rep = _spawn(args, trace, False, remaining())
        if rep is None:
            crashed = True
            break
        rep["traced"] = trace
        reps.append(rep)
        setup = _spawn(args, 0, True, remaining())
        if setup is None:
            crashed = True
            break
        setups += [rep, setup]
        durations.append(time.monotonic() - started)
        print(f"rep {len(reps)} traced={trace} wall_s={rep['wall_s']:.3f} "
              f"host_scale={rep['timed_scale']:.3f} "
              f"failed={rep['failed']} counts={json.dumps(rep['counts'])}")
        for problem in rep["problems"]:
            print(f"  FAILED {problem}")
        # Start another repetition while at least half of it fits.
        typical = median(durations)
        if len(reps) >= MIN_REPS and time.monotonic() + typical / 2 > deadline:
            break
        if time.monotonic() + 2 * typical > began + HARD_LIMIT_S:
            break

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    # Deterministic counts: identical over the repetitions of one seed,
    # traced or not.  A change that moves them changed behaviour.
    counts = {json.dumps(rep["counts"], sort_keys=True) for rep in reps}
    if len(counts) > 1:
        print("deterministic counts differ between repetitions:",
              *sorted(counts), sep="\n  ")
    correct = (not crashed and bool(reps) and failed == 0
               and len(counts) == 1)
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    if crashed or not untraced or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        metrics = _per_layer(traced, untraced)
    else:
        metrics = _end_to_end(untraced, setups)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
