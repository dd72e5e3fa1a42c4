"""Perf-regression harness for the primitive benchmarks.

The one implementation behind ``repro bench``, the ``repro-bench-compare``
console script and ``tools/bench_compare.py``.  It runs
``benchmarks/bench_primitives.py`` under pytest-benchmark, compares the
measured timings against ``BENCH_primitives.json`` at the repository
root, runs two paired gates and records the run.

The JSON file is a small trajectory database::

    {
      "version": 1,
      "baseline": {"label": "seed", "captured": "...", "results": {...}},
      "runs": [{"label": "...", "captured": "...", "machine": {...},
                "results": {...}}, ...]
    }

``results`` maps benchmark name to ``{"mean": s, "min": s, "rounds": n}``;
``machine`` is the :func:`machine_fingerprint` of the recording host
(CPU model, logical core count, Python version).  Comparison uses the
**min** statistic: the minimum over rounds is the least noise-sensitive
location estimate for a CPU-bound microbenchmark (one-sided timing
noise only ever inflates samples).

Every run takes one path through :func:`main`:

1. the reference is the latest recorded run under
   ``--fail-on-regression PCT`` (the comparative CI mode), otherwise the
   baseline;
2. compare against it;
3. fail on a regression when the reference was recorded on this
   machine's fingerprint, only warn otherwise (absolute timings do not
   compare across machines);
4. run the paired gates (:func:`measure_obs_overhead`,
   :func:`measure_sweep_gain`), both through :func:`interleave`, so
   they gate on any machine;
5. record the run, unless it is ``--smoke`` or ``--fail-on-regression``.

Usage::

    repro bench                          # run, compare, gate, record
    repro bench --smoke                  # fast sanity pass (lenient, read-only)
    repro bench --fail-on-regression 15  # CI gate vs latest run (read-only)
    repro bench --smoke --profile        # + one cProfile dump per benchmark
    repro bench --update-baseline --label my-change
    repro bench --self-test              # validate the comparison logic

Exit codes: 0 = within threshold, 1 = regression, failed gate or failed
self-test, 2 = usage / environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.tools import finite_non_negative

#: Name of the trajectory file at the repository root.
RESULTS_FILENAME = "BENCH_primitives.json"

#: Benchmark module executed by the harness, relative to the repo root.
BENCH_PATH = Path("benchmarks") / "bench_primitives.py"

#: Default regression threshold, percent slower than baseline.
DEFAULT_THRESHOLD_PCT = 15.0

#: Threshold used by ``--smoke``: only catastrophic slowdowns fail, since
#: the smoke pass runs one round per benchmark and is therefore noisy.
SMOKE_THRESHOLD_PCT = 500.0

#: Budget for the streaming overhead, percent of the plain sweep.
OBS_OVERHEAD_PCT = 5.0

#: Interleaved rounds per side of :func:`measure_obs_overhead`.  On a
#: 2-core Xeon, plain-vs-plain (A/A) reads at 160 rounds stayed within
#: ±3 %, against one −8.9 % read at 40; the gate takes ~20 s.
OBS_ROUNDS = 160

#: Minimum multi-batch speedup (legacy-pattern time / current time) the
#: gate demands from :func:`measure_sweep_gain`.  The structural target
#: is >= 2x (dedup halves a 50 %-duplicate batch and one executor's
#: worker pool serves every batch instead of a fork per batch); the gate
#: floor is softer so load spikes on shared CI runners don't flake the
#: build.
SWEEP_GAIN_MIN = 1.5

#: Default ``--profile`` directory, relative to the repository root.
PROFILE_DIR = Path("benchmarks") / "profiles"

#: The repository this module ships in: src/repro/tools/ -> root.
REPO_ROOT = Path(__file__).resolve().parents[3]


class BenchCompareError(Exception):
    """Environment or usage error (exit code 2)."""


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def machine_fingerprint() -> Dict[str, object]:
    """Identity of the measuring host, recorded with every run.

    CPU model, logical core count and Python version — the three factors
    that dominate absolute microbenchmark timings.  Two runs with equal
    fingerprints are comparable; across differing fingerprints only
    within-run ratios mean anything.
    """
    cpu = platform.processor() or platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.partition(":")[0].strip() == "model name":
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count() or 0,
        "python": platform.python_version(),
    }


def same_machine(reference_entry: dict) -> bool:
    """Whether a recorded entry came from this host.

    Entries predating the fingerprint field compare as *different* —
    absolute timings of unknown provenance cannot be trusted for a hard
    gate.
    """
    return reference_entry.get("machine") == machine_fingerprint()


def extract_results(benchmark_json: dict) -> Dict[str, dict]:
    """Reduce a pytest-benchmark JSON document to the stats we keep."""
    results: Dict[str, dict] = {}
    for bench in benchmark_json.get("benchmarks", []):
        stats = bench["stats"]
        results[bench["name"]] = {
            "mean": stats["mean"],
            "min": stats["min"],
            "rounds": stats["rounds"],
        }
    return results


def compare(
    baseline: Dict[str, dict],
    current: Dict[str, dict],
    threshold_pct: float,
) -> List[str]:
    """Return a human-readable line per regression (empty = all good).

    A benchmark regresses when its ``min`` exceeds the baseline ``min``
    by more than ``threshold_pct`` percent.  Benchmarks present in only
    one of the two sets are reported as informational lines by the
    caller, never as regressions — adding or retiring a benchmark must
    not fail CI.
    """
    regressions: List[str] = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            continue
        base_min = base["min"]
        cur_min = cur["min"]
        if base_min <= 0:
            continue
        change_pct = (cur_min / base_min - 1.0) * 100.0
        if change_pct > threshold_pct:
            regressions.append(
                f"{name}: {cur_min * 1e3:.3f} ms vs baseline "
                f"{base_min * 1e3:.3f} ms (+{change_pct:.1f} % > "
                f"+{threshold_pct:.1f} % allowed)"
            )
    return regressions


def format_report(
    baseline: Dict[str, dict], current: Dict[str, dict]
) -> str:
    """Side-by-side table of baseline vs current minima."""
    lines = [
        f"{'benchmark':<36} {'baseline':>12} {'current':>12} {'change':>9}"
    ]
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            lines.append(f"{name:<36} {'-':>12} "
                         f"{cur['min'] * 1e3:>10.3f}ms {'new':>9}")
            continue
        if cur is None:
            lines.append(f"{name:<36} {base['min'] * 1e3:>10.3f}ms "
                         f"{'-':>12} {'missing':>9}")
            continue
        change = (cur["min"] / base["min"] - 1.0) * 100.0
        lines.append(
            f"{name:<36} {base['min'] * 1e3:>10.3f}ms "
            f"{cur['min'] * 1e3:>10.3f}ms {change:>+8.1f}%"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class Samples:
    """One side's timed rounds of an :func:`interleave` run, in seconds."""

    times: Tuple[float, ...]

    @property
    def min(self) -> float:
        return min(self.times)

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def iqr(self) -> float:
        """Interquartile range (0 for fewer than two rounds)."""
        if len(self.times) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.times, n=4, method="inclusive")
        return q3 - q1

    def describe(self, name: str) -> str:
        return (f"  {name:<16} min {self.min * 1e3:8.2f} ms  median "
                f"{self.median * 1e3:8.2f} ms  IQR {self.iqr * 1e3:6.2f} ms "
                f"({len(self.times)} rounds)")


@dataclass(frozen=True)
class ABResult:
    """Both sides of an :func:`interleave` run."""

    a: Samples
    b: Samples

    @property
    def ratio(self) -> float:
        """``min(b) / min(a)``: the min-vs-min statistic the gates use."""
        return self.b.min / self.a.min


def interleave(
    run_a: Callable[[], float], run_b: Callable[[], float], rounds: int
) -> ABResult:
    """Time two sides against each other in alternating order.

    Each side is a callable returning the seconds one call took.  One
    uncounted warm-up call per side comes first; then every round calls
    both sides, A first in even rounds and B first in odd ones.  Host
    frequency drift hits both sides alike, and whichever slot of a round
    runs faster (the second, on a warm host) favours neither side.
    """
    run_a()
    run_b()
    a: List[float] = []
    b: List[float] = []
    for index in range(rounds):
        if index % 2:
            b.append(run_b())
            a.append(run_a())
        else:
            a.append(run_a())
            b.append(run_b())
    return ABResult(Samples(tuple(a)), Samples(tuple(b)))


def _timed(fn: Callable[[], object]) -> Callable[[], float]:
    """``fn`` as an :func:`interleave` side: each call returns seconds."""

    def run() -> float:
        begin = time.perf_counter()
        fn()
        return time.perf_counter() - begin

    return run


def measure_obs_overhead(rounds: int = OBS_ROUNDS) -> float:
    """Measure the streaming overhead with :func:`interleave`.

    Side A is a plain sweep, side B the identical sweep feeding a run
    ledger.  The workload is campaign-representative (six 500-token
    synthetic reference tasks; the ledger cost is a fixed two records
    per task, so toy tasks would measure the JSONL encoder, not the
    streaming design).  Returns the percent by which the best streamed
    round exceeds the best plain round (min-vs-min, the noise-robust
    statistic).
    """
    from repro.apps.synthetic import SyntheticApp
    from repro.exec import SweepExecutor, TaskSpec
    from repro.obs import LedgerWriter

    app = SyntheticApp.bursty(seed=3)
    sizing = app.sizing()
    specs = [TaskSpec.reference(app, 500, seed, sizing=sizing)
             for seed in range(1, 7)]
    with tempfile.TemporaryDirectory() as tmp:
        with LedgerWriter(Path(tmp) / "obs-overhead.ledger") as ledger:
            result = interleave(
                _timed(lambda: SweepExecutor().run(specs)),
                _timed(lambda: SweepExecutor(ledger=ledger).run(specs)),
                rounds,
            )
    print(result.a.describe("plain sweep"))
    print(result.b.describe("streamed sweep"))
    return (result.ratio - 1.0) * 100.0


def obs_overhead_check(
    overhead_pct: Optional[float],
    threshold_pct: float = OBS_OVERHEAD_PCT,
) -> Optional[str]:
    """A failure line when a measured streaming overhead breaks budget.

    ``None`` when within budget or when no measurement is available.
    Feed it :func:`measure_obs_overhead`; only full (non-smoke) runs
    gate.
    """
    if overhead_pct is None or overhead_pct <= threshold_pct:
        return None
    return (
        f"streaming overhead {overhead_pct:+.1f} % exceeds the "
        f"{threshold_pct:.1f} % budget (interleaved streamed-vs-plain "
        "sweep, paired within this run)"
    )


def sweep_gain_specs():
    """The 50 %-duplicate scenario matrix the multi-batch harness runs.

    Six unique 30-token synthetic reference specs, each appearing twice —
    the duplicate fraction campaign batches exhibit when scenario axes
    overlap (and the published dedup target: half the batch shares
    digests with the other half).
    """
    from repro.apps.synthetic import SyntheticApp
    from repro.exec import TaskSpec

    app = SyntheticApp.bursty(seed=3)
    sizing = app.sizing()
    unique = [
        TaskSpec.reference(app, 30, seed, sizing=sizing)
        for seed in range(1, 7)
    ]
    return unique + unique


def measure_sweep_gain(
    rounds: int = 5, batches: int = 3, jobs: int = 2
) -> float:
    """Multi-batch sweep speedup of the executor's reuse and dedup over
    a fresh, dedup-free executor per batch, measured with
    :func:`interleave`.

    Each side runs ``batches`` consecutive sweeps of the 50 %-duplicate
    matrix (:func:`sweep_gain_specs`, no cache).  Side A is the current
    default: one ``SweepExecutor(jobs=jobs)`` whose worker pool serves
    every batch, digest dedup on.  Side B is the *legacy* pattern: a new
    ``SweepExecutor(jobs=jobs, dedup=False)`` per batch, closed after
    it, so every batch forks its own pool.  The returned gain is
    min-vs-min, ``best B time / best A time`` (> 1 means the current
    default is faster).  The gain is structural — fewer executions and
    fewer forks — so it holds on single-core runners where raw pool
    parallelism cannot.
    """
    from repro.exec import SweepExecutor

    specs = sweep_gain_specs()

    def current() -> None:
        with SweepExecutor(jobs=jobs) as executor:
            for _ in range(batches):
                executor.run(specs)

    def legacy() -> None:
        for _ in range(batches):
            with SweepExecutor(jobs=jobs, dedup=False) as executor:
                executor.run(specs)

    result = interleave(_timed(current), _timed(legacy), rounds)
    print(result.a.describe("reused executor"))
    print(result.b.describe("per-batch legacy"))
    return result.ratio


def sweep_gain_check(
    gain: Optional[float],
    threshold: float = SWEEP_GAIN_MIN,
) -> Optional[str]:
    """A failure line when the multi-batch sweep gain falls below the
    floor; ``None`` when healthy or when no measurement is available."""
    if gain is None or gain >= threshold:
        return None
    return (
        f"multi-batch sweep gain {gain:.2f}x is below the {threshold:.2f}x "
        "floor (reused executor + dedup vs a fresh executor per batch, "
        "interleaved within this run)"
    )


def load_db(path: Path) -> Optional[dict]:
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BenchCompareError(f"corrupt {path}: {exc}") from exc


def save_db(path: Path, db: dict) -> None:
    path.write_text(json.dumps(db, indent=2, sort_keys=True) + "\n")


def run_benchmarks(
    repo_root: Path, smoke: bool, profile_dir: Optional[Path] = None
) -> Dict[str, dict]:
    """Run the benchmark module and return the extracted results.

    ``profile_dir`` additionally runs every benchmark under
    :mod:`cProfile` and saves one :mod:`pstats`-loadable
    ``profile-<test_name>.prof`` dump per benchmark into that directory
    (created if needed).  Profiled rounds are instrumented rounds — the
    *timings* recorded for comparison still come from the uninstrumented
    measurement loop, but expect extra wall-clock.
    """
    bench_file = repo_root / BENCH_PATH
    if not bench_file.exists():
        raise BenchCompareError(f"benchmark module not found: {bench_file}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            str(bench_file),
            "-q",
            "--benchmark-only",
            f"--benchmark-json={out}",
        ]
        if smoke:
            cmd += [
                "--benchmark-min-rounds=1",
                "--benchmark-max-time=0.1",
                "--benchmark-warmup=off",
            ]
        if profile_dir is not None:
            profile_dir = Path(profile_dir)
            profile_dir.mkdir(parents=True, exist_ok=True)
            cmd += [
                "--benchmark-cprofile=cumtime",
                f"--benchmark-cprofile-dump={profile_dir / 'profile'}",
            ]
        # The benchmarks import the in-tree package, installed or not.
        env = dict(os.environ)
        src = str(repo_root / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src if not existing else src + os.pathsep + existing
        )
        proc = subprocess.run(cmd, cwd=repo_root, env=env)
        if proc.returncode != 0:
            raise BenchCompareError(
                f"benchmark run failed (pytest exit {proc.returncode})"
            )
        return extract_results(json.loads(out.read_text()))


def latest_reference(db: dict) -> dict:
    """The comparison reference for ``--fail-on-regression``.

    The latest trajectory entry when one exists, else the baseline:
    regressions are judged against where the repository's performance
    *currently* is, not against the historical seed.
    """
    runs = db.get("runs") or []
    return runs[-1] if runs else db["baseline"]


def self_test() -> int:
    """Validate the comparison logic on synthetic data.

    Exercises the contract CI depends on: an injected synthetic
    regression beyond the threshold must be flagged, borderline and
    improved timings must pass, and added/removed benchmarks must never
    fail the comparison.
    """
    base = {
        "steady": {"mean": 1.1e-3, "min": 1.0e-3, "rounds": 50},
        "faster": {"mean": 2.2e-3, "min": 2.0e-3, "rounds": 50},
        "retired": {"mean": 9.9e-3, "min": 9.0e-3, "rounds": 50},
    }
    current = {
        # +14 % — inside the default 15 % threshold.
        "steady": {"mean": 1.2e-3, "min": 1.14e-3, "rounds": 50},
        # 2x faster — improvements never fail.
        "faster": {"mean": 1.1e-3, "min": 1.0e-3, "rounds": 50},
        # New benchmark with no baseline — informational only.
        "added": {"mean": 5.0e-3, "min": 4.5e-3, "rounds": 50},
    }
    failures: List[str] = []
    if compare(base, current, DEFAULT_THRESHOLD_PCT):
        failures.append("clean synthetic run was flagged as a regression")
    # Inject a 50 % regression; it must be caught.
    injected = dict(current)
    injected["steady"] = {"mean": 1.6e-3, "min": 1.5e-3, "rounds": 50}
    caught = compare(base, injected, DEFAULT_THRESHOLD_PCT)
    if len(caught) != 1 or "steady" not in caught[0]:
        failures.append(
            f"injected +50 % regression not flagged (got {caught!r})"
        )
    # The same regression passes under a lenient smoke threshold.
    if compare(base, injected, SMOKE_THRESHOLD_PCT):
        failures.append("smoke threshold flagged a +50 % change")
    # --fail-on-regression compares against the *latest* run, falling
    # back to the baseline only when the trajectory is empty.
    db = {
        "baseline": {"label": "seed", "results": base},
        "runs": [
            {"label": "older", "results": base},
            {"label": "newest", "results": current},
        ],
    }
    if latest_reference(db)["label"] != "newest":
        failures.append("latest_reference did not pick the newest run")
    if latest_reference({"baseline": db["baseline"], "runs": []})[
            "label"] != "seed":
        failures.append(
            "latest_reference did not fall back to the baseline"
        )
    # Streaming-overhead budget: within budget passes, a breach is
    # flagged, and a missing measurement is silently inconclusive.
    if obs_overhead_check(4.0):
        failures.append("a +4 % streaming overhead breached the 5 % budget")
    if not obs_overhead_check(20.0):
        failures.append("a +20 % streaming overhead was not flagged")
    if obs_overhead_check(None):
        failures.append("a missing overhead measurement was flagged")
    if obs_overhead_check(12.0, threshold_pct=15.0):
        failures.append("a configurable threshold was ignored")
    # Multi-batch sweep gain floor: a healthy gain passes, a shortfall
    # is flagged, and a missing measurement is silently inconclusive.
    if sweep_gain_check(2.4):
        failures.append("a 2.4x sweep gain was flagged below the floor")
    if not sweep_gain_check(1.2):
        failures.append("a 1.2x sweep gain was not flagged")
    if sweep_gain_check(None):
        failures.append("a missing sweep gain measurement was flagged")
    if sweep_gain_check(1.2, threshold=1.0):
        failures.append("a configurable sweep gain floor was ignored")
    # Machine fingerprints: this host matches itself, never matches a
    # foreign or missing fingerprint (legacy entries gate softly).
    fp = machine_fingerprint()
    if not all(key in fp for key in ("cpu", "cores", "python")):
        failures.append(f"fingerprint missing fields: {fp!r}")
    if not same_machine({"machine": machine_fingerprint()}):
        failures.append("same_machine rejected this host's fingerprint")
    if same_machine({"machine": dict(fp, cores=fp["cores"] + 1)}):
        failures.append("same_machine accepted a foreign fingerprint")
    if same_machine({"label": "legacy-entry-without-fingerprint"}):
        failures.append("same_machine accepted a missing fingerprint")
    if failures:
        for failure in failures:
            print(f"self-test FAILED: {failure}", file=sys.stderr)
        return 1
    print("self-test passed: injected regression flagged, clean run clean")
    return 0


def _report(tag: str, header: str, lines: List[str]) -> None:
    print(f"\n{tag}: {header}", file=sys.stderr)
    for line in lines:
        print(f"  {line}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-compare",
        description="Run the primitive benchmarks and fail on regression "
        f"against the baseline in {RESULTS_FILENAME}.",
    )
    parser.add_argument(
        "--repo-root",
        type=Path,
        default=REPO_ROOT,
        help=f"repository root holding {RESULTS_FILENAME} and {BENCH_PATH} "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--threshold",
        type=finite_non_negative,
        default=DEFAULT_THRESHOLD_PCT,
        metavar="PCT",
        help="max allowed slowdown in percent (default %(default)s)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast sanity pass: one round per benchmark, lenient "
        f"threshold ({SMOKE_THRESHOLD_PCT:.0f} %%), no paired gates, "
        "trajectory not recorded",
    )
    parser.add_argument(
        "--fail-on-regression",
        type=finite_non_negative,
        default=None,
        metavar="PCT",
        help="CI gate: compare this run against the latest recorded "
        "trajectory run (falling back to the baseline when the "
        "trajectory is empty) and fail beyond PCT percent slower; "
        "read-only, the trajectory is not rewritten",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="replace the stored baseline with this run's results",
    )
    parser.add_argument(
        "--label",
        default=None,
        help="label recorded with this run in the trajectory",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=PROFILE_DIR,
        default=None,
        type=Path,
        metavar="DIR",
        help="additionally run every benchmark under cProfile and save "
        "one pstats dump per benchmark into DIR, relative to the repo "
        "root (default when given without a value: %(const)s)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="validate the comparison logic on synthetic data and exit",
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    repo_root = args.repo_root.resolve()
    db_path = repo_root / RESULTS_FILENAME
    profile_dir = None if args.profile is None else repo_root / args.profile
    try:
        db = load_db(db_path)
        if db is None and not args.update_baseline:
            raise BenchCompareError(
                f"no {RESULTS_FILENAME} at {repo_root}; create one with "
                "--update-baseline"
            )
        current = run_benchmarks(
            repo_root, smoke=args.smoke, profile_dir=profile_dir
        )
    except BenchCompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if profile_dir is not None:
        dumps = sorted(profile_dir.glob("profile-*.prof"))
        print(f"{len(dumps)} cProfile dump(s) in {profile_dir} "
              "(inspect with python -m pstats <file>)")

    label = args.label or ("smoke" if args.smoke else "run")
    entry = {
        "label": label,
        "captured": _utc_now(),
        "machine": machine_fingerprint(),
        "results": current,
    }
    if args.update_baseline:
        db = db or {"version": 1}
        db["baseline"] = entry
        db["runs"] = []
        save_db(db_path, db)
        print(f"baseline '{label}' written to {db_path}")
        return 0

    if args.fail_on_regression is not None:
        reference, against = latest_reference(db), "latest run"
        threshold = args.fail_on_regression
    else:
        reference, against = db["baseline"], "baseline"
        threshold = SMOKE_THRESHOLD_PCT if args.smoke else args.threshold
    print(f"reference ({against}): {reference.get('label', '?')} "
          f"({reference.get('captured', '?')})")
    print(format_report(reference["results"], current))
    regressions = compare(reference["results"], current, threshold)
    if regressions:
        header = (f"{len(regressions)} regression(s) beyond "
                  f"{threshold:.1f} % of the {against}")
        # Absolute timings gate hard only against the machine that
        # recorded the reference; the smoke threshold is lenient enough
        # to hold on any machine.
        if args.smoke or same_machine(reference):
            _report("FAIL", header + ":", regressions)
            return 1
        _report("WARN", header + ", but the reference was recorded on a "
                "different machine fingerprint — reporting only, not "
                "failing:", regressions)

    # The paired gates interleave their two sides within this run, so
    # they gate across machine fingerprints too.  Single-round smoke
    # timings could not resolve either budget, so smoke skips them.
    if not args.smoke:
        overhead = measure_obs_overhead()
        print(f"streaming obs overhead (interleaved, min vs min): "
              f"{overhead:+.1f} % (budget {OBS_OVERHEAD_PCT:.1f} %)")
        gain = measure_sweep_gain()
        print(f"multi-batch sweep gain (interleaved, min vs min): "
              f"{gain:.2f}x (floor {SWEEP_GAIN_MIN:.2f}x)")
        failures = [failure for failure in (obs_overhead_check(overhead),
                                            sweep_gain_check(gain))
                    if failure]
        if failures:
            _report("FAIL", "paired gate(s) failed:", failures)
            return 1

    if not args.smoke and args.fail_on_regression is None:
        # Record the trajectory so the speedup history of the hot paths
        # survives in-repo.
        db.setdefault("runs", []).append(entry)
        save_db(db_path, db)
        print(f"\nrun '{label}' appended to {db_path}")
    if regressions:
        print("\nOK: the regressions above are advisory (foreign machine)")
    else:
        print(f"\nOK: all benchmarks within {threshold:.1f} % of the "
              f"{against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
