"""Experiment harnesses regenerating the paper's tables.

* :mod:`~repro.experiments.runner` — single-run primitives (reference run,
  duplicated fault-free run, duplicated faulted run);
* :mod:`~repro.experiments.table1` — the configuration table;
* :mod:`~repro.experiments.table2` — the fault-tolerance results table
  (capacities vs observed fills, detection latencies vs bounds, overheads,
  decoded inter-frame timings);
* :mod:`~repro.experiments.table3` — the comparison against the
  distance-function baseline;
* :mod:`~repro.experiments.ablations` — threshold / polling / capacity
  sweeps for the design choices called out in DESIGN.md.

All multi-run harnesses run their sweep on one ``executor`` argument, a
:class:`~repro.exec.SweepExecutor` the caller owns and closes (``None``:
a serial, uncached one that never forks); serial, parallel and
cache-replayed executions produce identical results.

Only :mod:`~repro.experiments.runner` loads with the package; every other
re-export imports its submodule (and, for the sweeps, :mod:`repro.exec`)
on first use.
"""

from repro._lazy import lazy_exports
from repro.experiments.runner import (
    DuplicatedRun,
    ReferenceRun,
    run_duplicated,
    run_reference,
)

__getattr__, __dir__ = lazy_exports(__name__, {
    **dict.fromkeys(["render_table1", "table1_rows"], "table1"),
    **dict.fromkeys(["Table2Result", "render_table2", "run_table2",
                     "table2_specs"], "table2"),
    **dict.fromkeys(["Table3Result", "render_table3", "run_table3",
                     "table3_specs"], "table3"),
    **dict.fromkeys(["ReproductionResult", "reproduce_all"], "reproduce"),
    **dict.fromkeys(["ConformanceViolation", "ValidationReport",
                     "check_curve_conformance", "validate_run",
                     "validation_sweep"], "validation"),
    **dict.fromkeys(["capacity_margin_sweep", "polling_interval_sweep",
                     "threshold_sweep"], "ablations"),
})

__all__ = [
    "ReproductionResult",
    "reproduce_all",
    "ConformanceViolation",
    "ValidationReport",
    "check_curve_conformance",
    "validate_run",
    "validation_sweep",
    "DuplicatedRun",
    "ReferenceRun",
    "run_duplicated",
    "run_reference",
    "render_table1",
    "table1_rows",
    "Table2Result",
    "render_table2",
    "run_table2",
    "table2_specs",
    "Table3Result",
    "render_table3",
    "run_table3",
    "table3_specs",
    "capacity_margin_sweep",
    "polling_interval_sweep",
    "threshold_sweep",
]
