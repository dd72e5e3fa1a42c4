"""Developer tooling shipped with the library.

:mod:`repro.tools.bench_compare` is the perf-regression harness that runs
the primitive benchmarks and compares them against the committed
baseline in ``BENCH_primitives.json``; :mod:`repro.tools.sweep_smoke`
checks parallel/serial/cached sweep identity.  This package also holds
the argparse value types the command lines share.
"""

import argparse
import math


def finite_non_negative(text: str) -> float:
    """argparse type: a finite float >= 0 (``nan``/``inf`` rejected)."""
    try:
        value = float(text)
        if math.isfinite(value) and value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a finite number >= 0, got {text!r}"
    )
