"""Host-speed sampling for the end-to-end times.

The reference host (2 vCPUs on a shared machine) drifts: the same code
runs up to ~1.8x slower at times, per vCPU, switching within a second
and in phases of minutes.  The drift is per instruction (CPU time grows
with wall time; there is no steal time).  Raw times of identical runs a
few minutes apart spread by 0.2-0.35 (quartile distance over median),
more than any useful regression bound, and probes taken before and after
a timed part miss the switches inside it.

So while a repetition runs, one sampler process per vCPU it uses, pinned
to that vCPU, times a small fixed kernel every :data:`PERIOD_S` seconds:
a heap-driven event loop and a few 8x8 numpy block transforms, the
program's two kinds of work.  A time measured over an interval is scaled
by ``REFERENCE_S / mean kernel time in that interval`` into seconds on
the reference host at its fast speed (:func:`scale`).  The kernel is
part of the benchmark, not of the program, so a change to the program
cannot move it.  Sampling costs about 2% of the sampled vCPU, the same
on every commit.

Run as a script, this module is one sampler::

    python3 perfbench/calibrate.py <cpu>

It prints ``ready``, samples until SIGTERM, then prints the samples as a
JSON list of ``[time.monotonic(), kernel seconds]``.
"""

from __future__ import annotations

import heapq
import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Sequence

import numpy as np

#: Kernel seconds on the reference host in its fast state (Intel Xeon,
#: 2 cores, Python 3.11.7).  Only scales the reported times; changing it
#: makes them incomparable with earlier runs.
REFERENCE_S = 0.00040

#: Pause between two kernel runs of a sampler.
PERIOD_S = 0.02

_BASIS = np.random.default_rng(1).standard_normal((8, 8))
_FRAME = np.random.default_rng(2).integers(0, 255, (32, 24)).astype(float)


def kernel() -> float:
    """The fixed unit of work the samplers time."""
    rng = random.Random(1)
    heap = [(rng.random(), index) for index in range(32)]
    heapq.heapify(heap)
    total = 0.0
    for sequence in range(32, 432):
        when, _ = heapq.heappop(heap)
        total += when
        heapq.heappush(heap, (when + rng.random(), sequence))
    for y in range(0, 32, 8):
        for x in range(0, 24, 8):
            block = _FRAME[y:y + 8, x:x + 8]
            total += float(np.abs(_BASIS @ block @ _BASIS.T).sum())
    return total


class Samplers:
    """One sampler process per vCPU, for the life of one repetition."""

    def __init__(self, cpus: Sequence[int]) -> None:
        self._processes: Dict[int, subprocess.Popen] = {}
        try:
            for cpu in cpus:
                process = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu)],
                    stdout=subprocess.PIPE, text=True,
                )
                self._processes[cpu] = process
                if process.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"sampler on vCPU {cpu} did not start")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> List[List[float]]:
        """Stop every sampler, wait for it, and return all samples."""
        samples: List[List[float]] = []
        for process in self._processes.values():
            process.terminate()
            out, _ = process.communicate()
            lines = out.strip().splitlines()
            if process.returncode == 0 and lines:
                samples += json.loads(lines[-1])
        self._processes.clear()
        return samples


def scale(samples: List[List[float]], start: float, end: float) -> float:
    """Reference-host seconds per host second over ``[start, end]``.

    Uses the samples taken inside the interval, or the one closest to it
    when the interval is shorter than a sampling period.
    """
    inside = [spent for at, spent in samples if start <= at <= end]
    if not inside:
        middle = (start + end) / 2
        inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
    return REFERENCE_S * len(inside) / sum(inside)


def _sample(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    samples = []
    print("ready", flush=True)
    while not stopped:
        started = time.monotonic()
        kernel()
        samples.append([started, time.monotonic() - started])
        time.sleep(PERIOD_S)
    print(json.dumps(samples))


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
