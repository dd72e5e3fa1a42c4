#!/usr/bin/env python
"""Repo-root entry point for the perf-regression harness.

Thin shim over :mod:`repro.tools.bench_compare`, so ``python
tools/bench_compare.py`` works from anywhere without installing the
package.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.tools.bench_compare import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
