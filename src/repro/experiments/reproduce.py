"""One-call regeneration of the complete evaluation.

``reproduce_all()`` runs Tables 1-3 for all three applications and
returns (and optionally writes) a markdown report — the programmatic
equivalent of running the full benchmark suite, for use from scripts,
notebooks and CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import full_report
from repro.apps import ALL_APPLICATIONS
from repro.apps.base import AppScale
from repro.experiments.table1 import render_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.table3 import Table3Result, run_table3


@dataclass
class ReproductionResult:
    """Everything the evaluation produced."""

    table1_text: str
    table2_results: List[Table2Result]
    table3_result: Table3Result
    markdown: str

    @property
    def all_verdicts_hold(self) -> bool:
        """True iff every application satisfied every Table 2 verdict and
        the baseline comparison ran without false positives."""
        table2_ok = all(
            r.detected_in_every_run and r.within_bounds
            and r.outputs_equivalent
            for r in self.table2_results
        )
        table3_ok = all(
            row.baseline_false_positives == 0
            for row in self.table3_result.rows
        )
        return table2_ok and table3_ok


def reproduce_all(
    runs: int = 20,
    warmup_tokens: int = 150,
    seed: int = 42,
    output_path: Optional[str] = None,
    jobs: int = 1,
    cache=None,
) -> ReproductionResult:
    """Regenerate the full evaluation.

    ``output_path`` optionally writes the markdown report to disk.
    Smaller ``runs`` / ``warmup_tokens`` give quick smoke reproductions.
    ``jobs`` fans each table's sweep across processes; ``cache`` (a
    :class:`repro.exec.ResultCache`) replays previously executed runs.
    All four table sweeps share one persistent
    :class:`repro.exec.SweepExecutor`, so the worker pool forks once for
    the whole evaluation instead of once per table.
    """
    from repro.exec import SweepExecutor

    apps = [cls(AppScale(), seed=seed) for cls in ALL_APPLICATIONS]
    table1_text = render_table1(apps)
    with SweepExecutor(jobs=jobs, cache=cache) as executor:
        table2_results = [
            run_table2(app, runs=runs, warmup_tokens=warmup_tokens,
                       executor=executor)
            for app in apps
        ]
        table3_result = run_table3(apps=apps, runs=runs,
                                   warmup_tokens=min(warmup_tokens, 120),
                                   executor=executor)
    markdown = "\n".join(
        [
            "```",
            table1_text,
            "```",
            "",
            full_report(table2_results, table3_result,
                        title="DAC'14 fault-tolerance reproduction"),
        ]
    )
    if output_path is not None:
        with open(output_path, "w") as handle:
            handle.write(markdown)
    return ReproductionResult(
        table1_text=table1_text,
        table2_results=table2_results,
        table3_result=table3_result,
        markdown=markdown,
    )
