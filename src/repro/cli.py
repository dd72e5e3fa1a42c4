"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``sizing``
    Run the Section 3.4 design-time analysis for PJD models given on the
    command line (or for one of the built-in applications).
``tables``
    Regenerate the paper's tables (configurable run counts).
``demo``
    Run a single fault-injection demonstration and print the detections.
``calibrate``
    Fit a PJD model to a trace of event timestamps (file or stdin,
    one timestamp per line) — the Eq. 2 calibration path.
``run``
    Run one fault-free duplicated network and print the engine summary,
    including simulation throughput (events/sec).
``report``
    Run one (optionally fault-injected) scenario with full telemetry and
    emit a run report: per-channel max fill vs theoretical capacity,
    divergence headroom, detection latency vs the Eq. 8 bound, and
    throughput.  ``--json`` writes the machine-readable report,
    ``--trace-out`` a Chrome/Perfetto trace of the run.
``reproduce``
    Run the full evaluation (all apps, all tables) and write a markdown
    reproduction report with pass/fail verdicts.
``campaign``
    Run a randomized fault-injection campaign: a seeded scenario matrix
    judged by the paper-derived invariant oracles, failures shrunk to
    minimal reproducers.  ``--out-dir`` persists the campaign report and
    reproducer JSON files; ``--replay`` re-executes previously saved
    reproducers instead.  Exits nonzero on any surviving violation.
    ``--ledger PATH`` streams an append-only ``repro.ledger/1`` JSONL
    record of the run as it happens; ``--status-port N`` additionally
    serves the live status document over HTTP while the campaign runs.
``top``
    Render the live status of a run ledger: progress bar, ETA, verdict
    counts, merged ``detect.latency_ms`` percentiles and per-worker
    throughput.  ``--watch N`` refreshes every N seconds until the run
    completes, ``--json PATH`` writes the status document, ``--port N``
    serves it over HTTP (JSON + Prometheus text) instead of rendering.
``bench``
    The perf-regression harness, :func:`repro.tools.bench_compare.main`
    (also ``repro-bench-compare`` and ``tools/bench_compare.py``): run
    the primitive benchmark suite, compare it against
    ``BENCH_primitives.json``, run the paired gates and append a
    labelled run with this host's machine fingerprint.

``tables`` and ``reproduce`` drive their sweeps through the
:mod:`repro.exec` executor: ``--jobs/-j N`` fans runs across N worker
processes, results are memoised in ``.repro-cache/`` (``--no-cache``
disables the cache, ``--refresh`` recomputes but re-stores).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from repro.apps import ALL_APPLICATIONS
from repro.apps.base import AppScale
from repro.rtc.pjd import PJD
from repro.tools import finite_non_negative

_APPS = {cls.name: cls for cls in ALL_APPLICATIONS}


def _parse_pjd(text: str) -> PJD:
    """Parse ``period,jitter,delay`` (or ``<p, j, d>``) into a PJD."""
    cleaned = text.strip().strip("<>").replace(" ", "")
    parts = cleaned.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected 'period,jitter,delay', got {text!r}"
        )
    try:
        period, jitter, delay = (float(p) for p in parts)
        return PJD(period, jitter, delay)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def _positive_int(text: str) -> int:
    """An integer >= 1 (worker counts)."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a positive integer, got {text!r}"
    )


def _slowdown(text: str) -> float:
    """A rate-degrade service-time factor: a finite float > 1."""
    try:
        value = float(text)
        if math.isfinite(value) and value > 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a finite number > 1, got {text!r}"
    )


def _cmd_sizing(args) -> int:
    if args.app:
        app = _APPS[args.app](AppScale())
        sizing = app.sizing()
        print(f"Application: {app.name}")
    else:
        if not (args.producer and args.replica1 and args.replica2):
            print("either --app or all of --producer/--replica1/--replica2 "
                  "are required", file=sys.stderr)
            return 2
        from repro.rtc.sizing import size_duplicated_network
        consumer = args.consumer or args.producer
        replicas = [args.replica1, args.replica2]
        sizing = size_duplicated_network(args.producer, replicas,
                                         replicas, consumer)
    for key, value in sizing.as_dict().items():
        print(f"  {key:20s} = {value}")
    print(f"  {'priming':20s} = {sizing.selector_priming}")
    return 0


def _sweep_options(args):
    """(jobs, cache) from the shared ``--jobs/--no-cache/--refresh``."""
    cache = None
    if not args.no_cache:
        from repro.exec import ResultCache

        cache = ResultCache(refresh=args.refresh)
    return args.jobs, cache


def _add_sweep_arguments(parser) -> None:
    parser.add_argument(
        "-j", "--jobs", type=_positive_int, default=1,
        help="worker processes for the sweep (1 = inline serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="ignore cached results but store fresh ones",
    )


def _cmd_tables(args) -> int:
    from repro.experiments.table1 import render_table1
    from repro.experiments.table2 import render_table2, run_table2
    from repro.experiments.table3 import render_table3, run_table3

    jobs, cache = _sweep_options(args)
    which = set(args.which or ["1", "2", "3"])
    if "1" in which:
        print(render_table1())
        print()
    if "2" in which:
        for name in (args.apps or list(_APPS)):
            app = _APPS[name](AppScale(), seed=42)
            result = run_table2(app, runs=args.runs,
                                warmup_tokens=args.warmup,
                                jobs=jobs, cache=cache)
            print(render_table2(result))
            print()
    if "3" in which:
        apps = [
            _APPS[name](AppScale(), seed=42)
            for name in (args.apps or list(_APPS))
        ]
        print(render_table3(run_table3(apps=apps, runs=args.runs,
                                       warmup_tokens=args.warmup,
                                       jobs=jobs, cache=cache)))
    return 0


def _cmd_demo(args) -> int:
    from repro.experiments.runner import fault_time_for, run_duplicated
    from repro.faults.models import FAIL_STOP, RATE_DEGRADE, FaultSpec

    app = _APPS[args.app](AppScale(), seed=args.seed)
    sizing = app.sizing()
    kind = RATE_DEGRADE if args.degrade else FAIL_STOP
    fault = FaultSpec(
        replica=args.replica,
        time=fault_time_for(app, args.warmup, phase=0.4),
        kind=kind,
        slowdown=args.slowdown if args.degrade else 4.0,
    )
    run = run_duplicated(app, args.warmup + 40, args.seed, fault=fault,
                         sizing=sizing)
    print(f"{app.name}: {kind} fault in replica {args.replica + 1} at "
          f"t = {fault.time:.1f} ms")
    for report in run.detections:
        print(f"  {report.site:<10s} +{report.time - fault.time:7.1f} ms "
              f"[{report.mechanism}] {report.detail}")
    print(f"  consumer stalls: {run.stalls}; tokens: {len(run.values)}")
    return 0


def _cmd_run(args) -> int:
    from repro.experiments.runner import run_duplicated

    app = _APPS[args.app](AppScale(), seed=args.seed)
    run = run_duplicated(app, args.tokens, args.seed)
    stats = run.stats
    print(f"{app.name}: {args.tokens} tokens, seed {args.seed}")
    print(f"  events            = {stats.events}")
    print(f"  virtual end time  = {stats.end_time:.1f} ms")
    print(f"  wall time         = {stats.wall_time_s * 1e3:.1f} ms")
    print(f"  events/sec        = {stats.events_per_sec:,.0f}")
    print(f"  consumer stalls   = {run.stalls}")
    print(f"  tokens delivered  = {len(run.values)}")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.rtc.calibration import fit_pjd

    if args.trace == "-":
        lines = sys.stdin.read().split()
    else:
        with open(args.trace) as handle:
            lines = handle.read().split()
    timestamps = [float(line) for line in lines if line.strip()]
    if len(timestamps) < 2:
        print("need at least two timestamps", file=sys.stderr)
        return 2
    model = fit_pjd(timestamps)
    print(f"fitted PJD: {model}")
    print(f"  period       = {model.period:.6g} ms")
    print(f"  jitter       = {model.jitter:.6g} ms")
    print(f"  min distance = {model.min_distance:.6g} ms")
    return 0


def _cmd_trace(args) -> int:
    from repro.experiments.runner import run_duplicated
    from repro.kpn.tracefile import (
        channel_timestamps,
        save_recorder,
        save_timestamps,
    )

    app = _APPS[args.app](AppScale(), seed=args.seed)
    run = run_duplicated(app, args.tokens, args.seed,
                         record_events=True)
    recorder = run.network.network.recorder
    if args.json:
        save_recorder(recorder, args.output)
        print(f"full trace ({len(recorder.names())} channels) written "
              f"to {args.output}")
        return 0
    if args.channel not in recorder.names():
        print(f"unknown channel {args.channel!r}; available: "
              f"{', '.join(recorder.names())}", file=sys.stderr)
        return 2
    timestamps = channel_timestamps(recorder[args.channel],
                                    kind=args.kind)
    save_timestamps(timestamps, args.output)
    print(f"{len(timestamps)} {args.kind} timestamps of "
          f"{args.channel} written to {args.output}")
    return 0


def _cmd_reproduce(args) -> int:
    from repro.experiments.reproduce import reproduce_all

    jobs, cache = _sweep_options(args)
    result = reproduce_all(runs=args.runs, warmup_tokens=args.warmup,
                           seed=args.seed, output_path=args.output,
                           jobs=jobs, cache=cache)
    print(f"report written to {args.output}")
    print(f"all verdicts hold: {result.all_verdicts_hold}")
    return 0 if result.all_verdicts_hold else 1


def _cmd_report(args) -> int:
    import json

    from repro.experiments.runner import fault_time_for, run_duplicated
    from repro.faults.models import FAIL_STOP, RATE_DEGRADE, FaultSpec
    from repro.obs import (
        Observability,
        build_run_report,
        render_report,
        validate_report,
        write_chrome_trace,
    )

    app = _APPS[args.app](AppScale(), seed=args.seed)
    sizing = app.sizing()
    fault = None
    if args.fault != "none":
        kind = RATE_DEGRADE if args.fault == "rate-degrade" else FAIL_STOP
        fault = FaultSpec(
            replica=args.replica,
            time=fault_time_for(app, args.warmup, phase=0.4),
            kind=kind,
            slowdown=args.slowdown,
        )
    tokens = args.warmup + args.drain
    obs = Observability()
    run = run_duplicated(app, tokens, args.seed, fault=fault,
                         sizing=sizing, obs=obs)
    report = build_run_report(run, sizing, app.name, tokens, args.seed,
                              fault=fault)
    validate_report(report)
    print(render_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"\nJSON report written to {args.json}")
    if args.trace_out:
        trace = write_chrome_trace(obs, args.trace_out)
        print(f"Perfetto trace ({len(trace['traceEvents'])} events) "
              f"written to {args.trace_out} — open at https://ui.perfetto.dev")

    detection = report["detection"]
    if detection["injected"] and not detection["detected"]:
        return 1
    if detection["within_bound"] is False:
        return 1
    return 0


def _cmd_campaign(args) -> int:
    import json
    from pathlib import Path

    from repro.campaign import (
        CampaignConfig,
        Reproducer,
        ReproducerError,
        build_campaign_report,
        load_reproducer,
        render_campaign_report,
        replay_reproducer,
        run_campaign,
        save_reproducer,
        save_run_report,
        validate_campaign_report,
    )
    from repro.kpn.errors import SimulationError

    jobs, cache = _sweep_options(args)

    if args.replay:
        # Replay previously saved reproducers.  A corrupt file is
        # quarantined with its named error; it never crashes the loop.
        failures = 0
        for path in args.replay:
            try:
                reproducer = load_reproducer(path)
            except ReproducerError as error:
                print(f"SKIP {path}: {error}", file=sys.stderr)
                failures += 1
                continue
            outcome = replay_reproducer(reproducer, jobs=jobs, cache=cache)
            reproduced = reproducer.matches(outcome)
            status = "reproduced" if reproduced else "NOT reproduced"
            print(f"{path}: {outcome.scenario.label()} -> {status} "
                  f"({', '.join(reproducer.target_oracles)})")
            for violation in outcome.violations:
                print(f"  {violation.oracle}: {violation.message}")
            if not reproduced:
                failures += 1
        return 1 if failures else 0

    ledger = None
    server = None
    if args.status_port is not None and not args.ledger:
        print("--status-port requires --ledger", file=sys.stderr)
        return 2
    if args.ledger:
        from repro.obs import LedgerWriter, StatusServer

        ledger = LedgerWriter(args.ledger)
        print(f"  streaming run ledger to {args.ledger}")
        if args.status_port is not None:
            server = StatusServer(args.ledger, port=args.status_port)
            server.start()
            print(f"  status endpoint: "
                  f"http://127.0.0.1:{server.port}/status")

    if args.mttf:
        return _run_mttf(args, jobs, cache, ledger, server)

    config = CampaignConfig(
        seed=args.seed,
        budget=args.budget,
        jobs=jobs,
        oracles=tuple(args.oracle or ()),
        self_tests=not args.no_self_tests,
        shrink=not args.no_shrink,
        cache=cache,
        ledger=ledger,
    )
    try:
        result = run_campaign(
            config, progress=lambda message: print(f"  {message}")
        )
    finally:
        if server is not None:
            server.close()
        if ledger is not None:
            ledger.close()
    report = build_campaign_report(result)
    validate_campaign_report(report)
    print()
    print(render_campaign_report(report))

    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "campaign-report.json"
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"\ncampaign report written to {report_path}")
        for digest, shrunk in sorted(result.shrunk.items()):
            reproducer = Reproducer(
                scenario=shrunk.minimal,
                target_oracles=shrunk.target_oracles,
                violations=shrunk.violations,
                campaign_seed=config.seed,
            )
            path = save_reproducer(
                reproducer, out_dir / f"reproducer-{digest[:16]}.json"
            )
            print(f"reproducer written to {path}")
            try:
                report_artifact = save_run_report(
                    shrunk.minimal,
                    out_dir / f"run-report-{digest[:16]}.json",
                )
            except SimulationError as error:
                print(f"run report skipped (run aborts): {error}")
            else:
                print(f"run report written to {report_artifact}")
    return 0 if result.ok else 1


def _run_mttf(args, jobs, cache, ledger, server) -> int:
    """The ``repro campaign --mttf`` mode: availability to convergence."""
    import json
    from pathlib import Path

    from repro.campaign import (
        MttfConfig,
        build_mttf_report,
        render_mttf_report,
        run_mttf_campaign,
        validate_mttf_report,
    )
    from repro.recovery import RecoverySpec

    recovery = RecoverySpec(
        reprime=not args.broken_countermeasure,
        response_ms=args.response_ms,
    )
    config = MttfConfig(
        seed=args.seed,
        max_cycles=args.max_cycles,
        min_cycles=args.min_cycles,
        window=args.mttf_window,
        rel_tol=args.mttf_rel_tol,
        jobs=jobs,
        recovery=recovery,
        oracles=tuple(args.oracle or ()),
        cache=cache,
        ledger=ledger,
    )
    try:
        result = run_mttf_campaign(
            config, progress=lambda message: print(f"  {message}")
        )
    finally:
        if server is not None:
            server.close()
        if ledger is not None:
            ledger.close()
    report = build_mttf_report(result)
    validate_mttf_report(report)
    print()
    print(render_mttf_report(report))

    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "mttf-report.json"
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"\nmttf report written to {report_path}")

    if args.broken_countermeasure:
        # Self-test mode: success means the recovery oracle caught the
        # deliberately broken countermeasure in *every* cycle.
        caught = bool(result.cycles) and all(
            any(v.oracle == "recovery" for v in c.outcome.violations)
            for c in result.cycles
        )
        print(f"\nbroken countermeasure "
              f"{'caught in every cycle' if caught else 'NOT caught'}")
        return 0 if caught else 1
    return 0 if result.ok else 1


def _cmd_top(args) -> int:
    import json
    import time

    from repro.obs import StatusServer, read_status, render_top

    if args.port is not None:
        with StatusServer(args.ledger, port=args.port) as server:
            print(f"serving {args.ledger} at "
                  f"http://127.0.0.1:{server.port}/status "
                  "(also /metrics; Ctrl-C to stop)")
            try:
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                pass
        return 0

    status = read_status(args.ledger)
    if args.watch is not None:
        # Clear-and-redraw refresh loop until the run completes (a
        # campaign-end / final sweep-end record appears in the ledger).
        try:
            while True:
                status = read_status(args.ledger)
                sys.stdout.write("\x1b[2J\x1b[H" + render_top(status)
                                 + "\n")
                sys.stdout.flush()
                if status.get("complete"):
                    break
                time.sleep(args.watch)
        except KeyboardInterrupt:
            pass
    else:
        print(render_top(status))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(status, handle, indent=2, sort_keys=True)
        print(f"status JSON written to {args.json}")
    return 0


def _cmd_cache(args) -> int:
    from repro.exec import ResultCache

    cache = ResultCache(root=args.dir)
    size = cache.size_stats()
    mb = size["bytes"] / (1024 * 1024)
    if args.cache_command == "stats":
        print(f"cache {cache.root}: {size['entries']} entries, "
              f"{mb:.2f} MiB")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"cache {cache.root}: removed {removed} entries")
        return 0
    # prune
    max_bytes = int(args.max_mb * 1024 * 1024)
    pruned = cache.prune(max_bytes)
    print(f"cache {cache.root}: removed {pruned['removed']} of "
          f"{size['entries']} entries "
          f"({mb:.2f} -> {pruned['bytes'] / (1024 * 1024):.2f} MiB, "
          f"limit {args.max_mb:.0f} MiB)")
    return 0


def _cmd_bench(args) -> int:
    from repro.tools import bench_compare

    return bench_compare.main(args.argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC'14 real-time fault-tolerance framework "
                    "(reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sizing = sub.add_parser("sizing", help="run the Section 3.4 analysis")
    sizing.add_argument("--app", choices=sorted(_APPS))
    sizing.add_argument("--producer", type=_parse_pjd,
                        help="producer model 'p,j,d' (ms)")
    sizing.add_argument("--replica1", type=_parse_pjd)
    sizing.add_argument("--replica2", type=_parse_pjd)
    sizing.add_argument("--consumer", type=_parse_pjd)
    sizing.set_defaults(func=_cmd_sizing)

    tables = sub.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument("--which", nargs="*", choices=["1", "2", "3"])
    tables.add_argument("--apps", nargs="*", choices=sorted(_APPS))
    tables.add_argument("--runs", type=int, default=5)
    tables.add_argument("--warmup", type=int, default=100)
    _add_sweep_arguments(tables)
    tables.set_defaults(func=_cmd_tables)

    demo = sub.add_parser("demo", help="single fault-injection run")
    demo.add_argument("--app", choices=sorted(_APPS), default="mjpeg")
    demo.add_argument("--replica", type=int, choices=[0, 1], default=0)
    demo.add_argument("--degrade", action="store_true",
                      help="rate-degradation instead of fail-stop")
    demo.add_argument("--slowdown", type=_slowdown, default=4.0)
    demo.add_argument("--warmup", type=int, default=80)
    demo.add_argument("--seed", type=int, default=1)
    demo.set_defaults(func=_cmd_demo)

    run = sub.add_parser(
        "run",
        help="run a fault-free duplicated network, print engine summary",
    )
    run.add_argument("--app", choices=sorted(_APPS), default="mjpeg")
    run.add_argument("--tokens", type=int, default=200)
    run.add_argument("--seed", type=int, default=1)
    run.set_defaults(func=_cmd_run)

    calibrate = sub.add_parser("calibrate",
                               help="fit a PJD model to a timestamp trace")
    calibrate.add_argument("trace",
                           help="file of timestamps (ms), or '-' for stdin")
    calibrate.set_defaults(func=_cmd_calibrate)

    trace = sub.add_parser(
        "trace",
        help="run an application and export a channel's event trace",
    )
    trace.add_argument("output", help="output file")
    trace.add_argument("--app", choices=sorted(_APPS), default="adpcm")
    trace.add_argument("--channel", default="replicator.R1",
                       help="channel to export (timestamp mode)")
    trace.add_argument("--kind", default="write",
                       choices=["write", "read", "drop"])
    trace.add_argument("--tokens", type=int, default=200)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--json", action="store_true",
                       help="export every channel as JSON instead")
    trace.set_defaults(func=_cmd_trace)

    reproduce = sub.add_parser(
        "reproduce", help="run the full evaluation, write a markdown report"
    )
    reproduce.add_argument("output", help="path of the markdown report")
    reproduce.add_argument("--runs", type=int, default=20)
    reproduce.add_argument("--warmup", type=int, default=150)
    reproduce.add_argument("--seed", type=int, default=42)
    _add_sweep_arguments(reproduce)
    reproduce.set_defaults(func=_cmd_reproduce)

    rep = sub.add_parser(
        "report",
        help="run one instrumented scenario, emit a telemetry run report",
    )
    rep.add_argument("--app", choices=sorted(_APPS), default="mjpeg")
    rep.add_argument("--fault", default="fail-stop",
                     choices=["fail-stop", "rate-degrade", "none"])
    rep.add_argument("--replica", type=int, choices=[0, 1], default=0)
    rep.add_argument("--slowdown", type=_slowdown, default=4.0,
                     help="service-time factor for rate-degrade faults")
    rep.add_argument("--warmup", type=int, default=80,
                     help="tokens before the injection instant")
    rep.add_argument("--drain", type=int, default=40,
                     help="tokens after the injection instant")
    rep.add_argument("--seed", type=int, default=1)
    rep.add_argument("--json", metavar="PATH",
                     help="write the machine-readable report here")
    rep.add_argument("--trace-out", metavar="PATH",
                     help="write a Chrome/Perfetto trace of the run here")
    rep.set_defaults(func=_cmd_report)

    campaign = sub.add_parser(
        "campaign",
        help="randomized fault-injection campaign with invariant oracles",
    )
    campaign.add_argument("--budget", type=int, default=100,
                          help="number of generated scenarios")
    campaign.add_argument("--seed", type=int, default=7,
                          help="campaign seed (scenario matrix + faults)")
    campaign.add_argument(
        "--oracle", action="append", metavar="NAME",
        choices=["run-ok", "no-false-positive", "isolation",
                 "detection-latency", "equivalence", "recovery"],
        help="restrict to this oracle (repeatable; default: all)",
    )
    campaign.add_argument(
        "--mttf", action="store_true",
        help="run an MTTF/availability campaign instead: repeated "
             "inject->detect->recover cycles with the closed-loop "
             "countermeasure, judged by the oracle suite, until the "
             "availability estimate converges",
    )
    campaign.add_argument("--max-cycles", type=int, default=60,
                          metavar="N",
                          help="MTTF mode: cycle budget (default 60)")
    campaign.add_argument("--min-cycles", type=int, default=12,
                          metavar="N",
                          help="MTTF mode: cycles before convergence may "
                               "stop the campaign (default 12)")
    campaign.add_argument("--mttf-window", type=int, default=8,
                          metavar="N",
                          help="MTTF mode: moving-average window of the "
                               "convergence test (default 8)")
    campaign.add_argument("--mttf-rel-tol", type=float, default=0.05,
                          metavar="F",
                          help="MTTF mode: relative availability change "
                               "below which the estimate counts as "
                               "converged (default 0.05)")
    campaign.add_argument("--response-ms", type=float, default=0.0,
                          metavar="MS",
                          help="MTTF mode: virtual delay between "
                               "detection and countermeasure (default 0)")
    campaign.add_argument("--broken-countermeasure", action="store_true",
                          help="MTTF mode: skip the selector re-prime "
                               "(the deliberately broken countermeasure; "
                               "every cycle must then trip the recovery "
                               "oracle)")
    campaign.add_argument("--out-dir", metavar="DIR",
                          help="write campaign-report.json and reproducer "
                               "files here")
    campaign.add_argument("--no-self-tests", action="store_true",
                          help="skip the deliberately mis-sized oracle "
                               "self-test scenarios")
    campaign.add_argument("--no-shrink", action="store_true",
                          help="skip shrinking violated scenarios")
    campaign.add_argument("--replay", nargs="+", metavar="FILE",
                          help="replay saved reproducer files instead of "
                               "running a campaign")
    campaign.add_argument("--ledger", metavar="PATH",
                          help="stream an append-only repro.ledger/1 "
                               "JSONL record of the run to PATH")
    campaign.add_argument("--status-port", type=int, default=None,
                          metavar="N",
                          help="serve the live status document over HTTP "
                               "on port N while the campaign runs "
                               "(0 = ephemeral; requires --ledger)")
    _add_sweep_arguments(campaign)
    campaign.set_defaults(func=_cmd_campaign)

    top = sub.add_parser(
        "top",
        help="render the live status of a run ledger",
    )
    top.add_argument("ledger", help="path of the repro.ledger/1 JSONL file")
    top.add_argument("--watch", type=float, default=None, metavar="SECS",
                     help="refresh every SECS seconds until the run "
                          "completes")
    top.add_argument("--json", metavar="PATH",
                     help="write the status document here as JSON")
    top.add_argument("--port", type=int, default=None, metavar="N",
                     help="serve the status document over HTTP instead "
                          "of rendering (0 = ephemeral port)")
    top.set_defaults(func=_cmd_top)

    cache = sub.add_parser(
        "cache",
        help="inspect or trim the on-disk sweep result cache",
    )
    cache.add_argument("--dir", default=None, metavar="DIR",
                       help="cache directory (default: "
                            "$REPRO_CACHE_DIR or .repro-cache)")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats",
                         help="entry count and on-disk footprint")
    cache_sub.add_parser("clear", help="delete every cached result")
    prune = cache_sub.add_parser(
        "prune",
        help="evict oldest entries until the cache fits a size budget",
    )
    prune.add_argument("--max-mb", type=finite_non_negative, required=True, metavar="MB",
                       help="target maximum cache size in MiB")
    cache.set_defaults(func=_cmd_cache)

    # The harness owns its options: with "+" as its only option prefix,
    # this subparser hands every argument through to it verbatim.
    bench = sub.add_parser(
        "bench", add_help=False, prefix_chars="+",
        help="run the primitive benchmark harness "
             "(options: repro bench --help)",
    )
    bench.add_argument("argv", nargs="*")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
