"""Console entry point: run a named figure of the paper through the engine.

Installed as ``repro-eval`` (see ``setup.py``).  Each verb takes only the
flags it reads, after the verb: ``repro-eval VERB --help`` lists them, and
any other flag is a usage error (exit 2).  Examples::

    repro-eval figure5 --benchmarks int_matmult crc32 --levels O2 --workers 4
    repro-eval figure9 --output results/
    repro-eval case-study
    repro-eval figure1
    repro-eval explore --benchmarks crc32 fdct --x-limits 1.1 1.5 --workers 2

Every experiment goes through :class:`repro.engine.ExperimentEngine`, so
programs compile once, grids fan out over processes, and ``--output DIR``
persists the records via :class:`repro.engine.ResultStore` for cross-run
comparison.

``explore`` runs a :mod:`repro.explore` design-space sweep (X_limit × spare
RAM × flash/RAM energy ratio × solver) into a *keyed* store: every cell is
content-addressed by its ``cell_key``, so sweeps shard across machines and
resume after interruption.  ``merge`` combines shard stores, and ``report``
rebuilds the Figure 5/6 artifacts (Pareto fronts, energy/time-vs-X_limit
tables, frontier sizes) from a merged store without re-simulating::

    repro-eval explore --benchmarks crc32 fdct 2dfir --x-limits 1.1 1.5 2.0 \
        --shard 0/3 --output shard-0           # ... one job per shard
    repro-eval merge --stores shard-0 shard-1 shard-2 --output merged
    repro-eval report --store merged --output figures

An interrupted sweep restarts with ``--resume`` (only missing cells are
re-simulated; ``--recheck K`` re-verifies K stored cells bitwise first).

``serve`` / ``submit`` / ``work`` / ``status`` / ``cancel`` run sweeps on
a *dynamically load-balanced fleet* (`repro.distrib`): one long-lived
service hosts many named sweeps concurrently — per-sweep queues, stores
and checkpoints, integer ``--priority`` weights under weighted-fair lease
scheduling, lease batches that shrink as each queue drains, re-leasing
from dead workers, and graceful cancellation (in-flight leases drain, the
partial store stays mergeable).  However many sweep-agnostic ``work``
processes connect, every completed store is byte-identical to a
monolithic ``explore`` run of the same axes::

    repro-eval serve --port 7399 --output stores --progress &
    repro-eval work --port 7399 &          # as many as you have cores/machines
    repro-eval work --port 7399 &
    repro-eval submit --benchmarks crc32 fdct --x-limits 1.1 1.5 \
        --name grid-a --priority 3 --port 7399
    repro-eval submit --benchmarks 2dfir --x-limits 2.0 \
        --name grid-b --port 7399 --wait
    repro-eval status --port 7399          # per-sweep counts, cells/s, ETA
    repro-eval cancel grid-a --port 7399

``serve --drain`` exits once every submitted sweep is terminal, and
``explore --distributed N`` is the one-machine shorthand (a draining
service plus N spawned local workers); ``--progress`` prints live cells/s
+ ETA to stderr on any path.

``analyze`` is the static-analysis gate: it lints every requested benchmark
× optimization level with :mod:`repro.analysis.verifier` (pristine and
again after a placement pass rewrites the code), simulates the optimized
program and audits every compiled superblock against its decode-once
records (:mod:`repro.analysis.superblock_audit`), printing each finding and
exiting non-zero if there are any::

    repro-eval analyze                       # lint + audit, all benchmarks
    repro-eval analyze --lint --levels O2    # lint only, one level

``--telemetry DIR`` (on the figure verbs, ``case-study``, ``explore``,
``serve``, ``work`` and ``analyze``: the ones that compile, solve, simulate
or host a fleet) streams span/counter events from every process — service,
workers, pool children — into ``DIR`` as JSON lines
(:mod:`repro.telemetry`); results are byte-identical with or without it.
``stats TRACE_DIR`` reduces such a trace directory into a per-phase
wall-clock breakdown, and ``metrics`` scrapes a live service's Prometheus
text without joining the fleet::

    repro-eval explore --benchmarks crc32 --telemetry trace/ --output out
    repro-eval stats trace/                  # where did the time go?
    repro-eval metrics --port 7399           # live queue depth / ETA / p95
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, List, Optional, Tuple

from repro.beebs import BENCHMARK_NAMES
from repro.engine import ExperimentEngine, ResultStore, default_engine
from repro.placement.optimizer import SOLVERS
from repro.placement.parameters import FREQUENCY_MODES
from repro.sim.pipeline import TIMING_MODELS, TimingSpec

#: Every optimization level the compiler driver accepts, in pipeline order.
ALL_OPT_LEVELS = ("O0", "O1", "O2", "O3", "Os")


def _timing_model(value: str) -> str:
    """``--timing-models`` type: the canonical name; unknown ones exit 2."""
    try:
        return TimingSpec.parse(value).name
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _shard(value: str) -> Tuple[int, int]:
    """``--shard`` type: ``(i, N)``; a malformed assignment exits 2."""
    from repro.explore import parse_shard
    try:
        return parse_shard(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _count(low: int) -> Callable[[str], int]:
    """Type of an integer count flag: a value below *low* exits 2."""
    def count(value: str) -> int:
        number = int(value)  # not an integer: argparse's "invalid count value"
        if number < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {number}")
        return number
    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-eval",
        description="Reproduce a figure of 'Optimizing the flash-RAM energy "
                    "trade-off in deeply embedded systems' (CGO 2015).",
        epilog="Flags follow the verb; 'repro-eval VERB --help' lists them.")
    verbs = parser.add_subparsers(
        dest="verb", required=True,
        help="which figure / reported number to reproduce, or which sweep, "
             "fleet or trace tool to run")

    def option(*names: str, **kwargs) -> argparse.ArgumentParser:
        """A parent parser: the one definition of an option verbs share."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    def verb(name: str, summary: str,
             *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return verbs.add_parser(name, help=summary, description=summary,
                                parents=list(parents))

    output = option("--output", default=None, metavar="DIR",
                    help="directory to persist JSON records into (submit: "
                         "on the service host; defaults to the service's "
                         "own store root)")
    telemetry = option("--telemetry", default=None, metavar="DIR",
                       help="write span/counter telemetry events (JSON "
                            "lines, one file per process) into DIR; "
                            "propagated to pool and distributed workers; "
                            "results are byte-identical with or without it")
    cache_dir = option("--cache-dir", default=None, metavar="DIR",
                       help="persistent on-disk program cache shared "
                            "between processes and runs: compiled programs "
                            "are pickled under DIR so a fleet compiles each "
                            "(benchmark, level) once per machine")
    x_limit = option("--x-limit", type=float, default=1.5,
                     help="allowed slowdown factor X_limit (default 1.5)")
    workers = option("--workers", type=_count(1), default=None,
                     help="in-process fan-out for grids (default: cpu count)")
    benchmarks = option("--benchmarks", nargs="*", default=None,
                        choices=BENCHMARK_NAMES, metavar="NAME",
                        help=f"benchmark subset (default: figure-specific; "
                             f"known: {', '.join(BENCHMARK_NAMES)})")
    levels = option("--levels", nargs="*", default=None, metavar="LEVEL",
                    choices=ALL_OPT_LEVELS,
                    help="optimization levels, e.g. O2 Os")
    frequency_modes = option("--frequency-modes", nargs="*",
                             default=("static",), choices=FREQUENCY_MODES,
                             help="block-frequency estimation modes")
    name = option("--name", default="sweep", metavar="NAME",
                  help="keyed store file name (default: sweep)")
    checkpoint_every = option(
        "--checkpoint-every", type=_count(1), default=None, metavar="K",
        help="journal completed cells to the store every K cells (O(batch) "
             "per checkpoint), so --resume restarts from the last checkpoint")
    lease_timeout = option("--lease-timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="re-lease a batch whose worker has not "
                                "heartbeat for this long (default 60; "
                                "explore: with --distributed)")
    progress = option("--progress", action="store_true",
                      help="print a live cells/s + ETA line to stderr "
                           "(stdout stays machine-readable)")
    client = argparse.ArgumentParser(add_help=False)
    client.add_argument("--host", default="127.0.0.1", metavar="HOST",
                        help="service address (default 127.0.0.1)")
    client.add_argument("--port", type=int, required=True, metavar="PORT",
                        help="service port")
    sweep = argparse.ArgumentParser(add_help=False, parents=[
        benchmarks, levels, frequency_modes, name, checkpoint_every])
    sweep.add_argument("--x-limits", nargs="*", type=float, default=None,
                       metavar="X", help="X_limit axis of an explore sweep")
    sweep.add_argument("--r-spares", nargs="*", type=int, default=None,
                       metavar="BYTES",
                       help="R_spare axis of an explore sweep "
                            "(omit to derive statically)")
    sweep.add_argument("--flash-ram-ratios", nargs="*", type=float,
                       default=None, metavar="RATIO",
                       help="flash/RAM energy-ratio axis of an explore sweep "
                            "(omit for the calibrated Figure 1 tables)")
    sweep.add_argument("--solvers", nargs="*", default=None, choices=SOLVERS,
                       help="solver axis of an explore sweep (default: ilp)")
    sweep.add_argument("--timing-models", nargs="*", default=None,
                       type=_timing_model, metavar="MODEL",
                       help=f"timing-model axis of an explore sweep: "
                            f"{', '.join(TIMING_MODELS)} or "
                            f"pipelined+icache:LxB (default: flat)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip cells already in the --output store and "
                            "append only the missing ones")
    sweep.add_argument("--batch-size", type=_count(1), default=None,
                       metavar="B",
                       help="most cells per lease; leases shrink as the "
                            "queue drains (default 4; explore: with "
                            "--distributed)")

    verb("figure1", "Figure 1: power per instruction type, flash vs RAM",
         output, telemetry)
    verb("figure2", "Figure 2: the motivating example, before and after "
         "placement", x_limit, output, telemetry)
    verb("figure5", "Figure 5: energy, time and power change per benchmark",
         benchmarks, levels, frequency_modes, x_limit, workers, cache_dir,
         output, telemetry)
    figure6 = verb("figure6", "Figure 6: one benchmark's placement design "
                   "space and solver trajectory", output, telemetry)
    figure6.add_argument("--benchmarks", dest="benchmark",
                         default="int_matmult", choices=BENCHMARK_NAMES,
                         metavar="NAME",
                         help="the benchmark (default int_matmult)")
    figure6.add_argument("--levels", dest="level", default="O2",
                         choices=ALL_OPT_LEVELS, metavar="LEVEL",
                         help="its optimization level (default O2)")
    figure9 = verb("figure9", "Figure 9: energy after placement vs sensing "
                   "period", benchmarks, x_limit, cache_dir, output,
                   telemetry)
    figure9.add_argument("--levels", dest="level", default="O2",
                         choices=ALL_OPT_LEVELS, metavar="LEVEL",
                         help="optimization level (default O2)")
    verb("case-study", "Section 7 case study: periodic sensing with fdct",
         x_limit, cache_dir, output, telemetry)
    explore = verb("explore", "run a design-space sweep into a keyed store",
                   sweep, workers, lease_timeout, progress, cache_dir,
                   output, telemetry)
    explore.add_argument("--shard", type=_shard, default=None, metavar="I/N",
                         help="run only shard I of N (cells are partitioned "
                              "by key hash; every cell lands in exactly one "
                              "shard)")
    explore.add_argument("--recheck", type=_count(0), default=0, metavar="K",
                         help="with --resume: recompute up to K stored cells "
                              "and fail unless they reproduce bitwise")
    explore.add_argument("--distributed", type=_count(1), default=None,
                         metavar="N",
                         help="run through a local sweep service with N "
                              "spawned worker processes (dynamic batch "
                              "leasing instead of the in-process pool)")
    submit = verb("submit", "submit a named sweep to a running service",
                  sweep, output, client)
    submit.add_argument("--priority", type=_count(1), default=1, metavar="P",
                        help="integer lease-scheduling weight; a priority-3 "
                             "sweep holds ~3x the outstanding cells of a "
                             "priority-1 sweep (default 1)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the sweep reaches a terminal state "
                             "and report it (non-zero exit on failure)")
    serve = verb("serve", "host named sweeps for a fleet of workers",
                 output, lease_timeout, checkpoint_every, progress, telemetry)
    serve.add_argument("--host", default="127.0.0.1", metavar="HOST",
                       help="address to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="port to bind (0 = ephemeral, printed to stderr)")
    serve.add_argument("--drain", action="store_true",
                       help="exit once every submitted sweep is terminal "
                            "(workers are released with 'done'); default is "
                            "to keep serving for later submits")
    work = verb("work", "compute leased cells for a service, one at a time "
                "(start more work processes to scale)",
                client, cache_dir, telemetry)
    work.add_argument("--throttle", type=float, default=0.0,
                      metavar="SECONDS",
                      help="artificial delay per executed cell "
                           "(manufactures stragglers for tests/benchmarks)")
    status = verb("status", "per-sweep progress of a service", client)
    status.add_argument("name", nargs="?", default=None,
                        help="the sweep to report (default: every hosted "
                             "sweep)")
    cancel = verb("cancel", "cancel a hosted sweep; its partial store stays "
                  "mergeable", client)
    cancel.add_argument("name", help="the sweep to cancel")
    verb("metrics", "a service's live Prometheus metrics", client)
    merge = verb("merge", "merge shard stores into one keyed store", name)
    merge.add_argument("--stores", nargs="+", required=True, metavar="PATH",
                       help="source stores (files or directories)")
    merge.add_argument("--output", required=True, metavar="DIR",
                       help="directory of the merged store")
    merge.add_argument("--require-disjoint", action="store_true",
                       help="fail on any duplicate cell across sources "
                            "instead of checking bitwise agreement")
    report = verb("report", "Figure 5/6 tables from a sweep store, without "
                  "re-simulating", name, output)
    report.add_argument("--store", required=True, metavar="DIR",
                        help="directory of the merged sweep store")
    analyze = verb("analyze", "machine-code lint and superblock audit",
                   benchmarks, levels, x_limit, cache_dir, output, telemetry)
    analyze.add_argument("--lint", action="store_true",
                         help="run the machine-code lint over each "
                              "benchmark, pristine and after placement "
                              "(default: lint and audit)")
    analyze.add_argument("--audit", action="store_true",
                         help="simulate each optimized benchmark and audit "
                              "every compiled superblock against its decode "
                              "records (default: lint and audit)")
    stats = verb("stats", "per-phase wall-clock breakdown of a telemetry "
                 "trace")
    stats.add_argument("trace_dir", metavar="TRACE_DIR",
                       help="telemetry trace directory to summarize")
    return parser


def _engine(cache_dir: Optional[str],
            workers: Optional[int] = None) -> ExperimentEngine:
    """The process-wide engine, or a fresh one for a pool or a disk cache."""
    if workers is None and cache_dir is None:
        return default_engine()
    return ExperimentEngine(max_workers=workers, cache_dir=cache_dir)


#: Axis defaults of an ``explore``/``submit`` sweep: the paper's X_limit
#: range (Figure 6 relaxes it from 1.0 to well past 1.5) and a flash/RAM
#: energy-ratio span around the calibrated Figure 1 tables (ratio ~1.7 on
#: the STM32F100).
DEFAULT_X_LIMITS: Tuple[float, ...] = (1.05, 1.1, 1.2, 1.5, 2.0)
DEFAULT_RATIOS: Tuple[Optional[float], ...] = (None, 1.25, 2.5)


def _sweep_from_args(args, parser):
    """The SweepSpec an ``explore``/``submit`` invocation describes; an
    out-of-range axis value is a usage error."""
    from repro.explore import SweepSpec
    ratios = (DEFAULT_RATIOS if args.flash_ram_ratios is None
              else tuple(args.flash_ram_ratios) or (None,))
    try:
        return SweepSpec(
            benchmarks=tuple(args.benchmarks or BENCHMARK_NAMES),
            opt_levels=tuple(args.levels or ("O2",)),
            x_limits=tuple(args.x_limits or DEFAULT_X_LIMITS),
            r_spares=tuple(args.r_spares) if args.r_spares else (None,),
            flash_ram_ratios=ratios,
            solvers=tuple(args.solvers or ("ilp",)),
            frequency_modes=tuple(args.frequency_modes),
            timing_models=tuple(args.timing_models or ("flat",)),
        )
    except ValueError as error:
        parser.error(str(error))


def _print_sweep_summary(summary: dict) -> None:
    line = (f"wrote {summary['meta']['cells']} cells to {summary['path']} "
            f"({summary['computed']} computed, {summary['skipped']} resumed, "
            f"{summary['rechecked']} rechecked)")
    distrib = summary.get("distrib")
    if distrib:
        line += (f" [distributed: {distrib['workers']} workers, "
                 f"{distrib['requeued_batches']} batches requeued, "
                 f"{distrib['duplicate_records']} duplicates]")
    cache = summary.get("cache")
    if cache:
        line += (f" [cache: {cache['compiles']} compiles, "
                 f"{cache['hits']} hits, {cache['disk_hits']} disk hits, "
                 f"{cache['disk_misses']} disk misses]")
    print(line)


def _format_sweep_line(name: str, snap: dict) -> str:
    """One human-readable status line per hosted sweep (serve/status)."""
    from repro.distrib.progress import format_eta
    line = (f"{name}: {snap['status']} {snap['done']}/{snap['total']} cells "
            f"(priority {snap['priority']}, {snap['pending']} pending, "
            f"{snap['leased']} leased)")
    throughput = snap.get("throughput")
    if throughput:
        line += f" | {throughput:.2f} cells/s"
        eta = snap.get("eta_seconds")
        if eta is not None:
            line += f", ETA {format_eta(eta)}"
    if snap.get("store_path"):
        line += f" -> {snap['store_path']}"
    if snap.get("failure"):
        line += f" | FAILED: {snap['failure']}"
    return line


def _emit(args, name: str, records: List[dict], meta: Optional[dict] = None) -> None:
    if args.output:
        path = ResultStore(args.output).save(name, records, meta=meta)
        print(f"wrote {len(records)} records to {path}")
    else:
        json.dump({"meta": meta or {}, "records": records}, sys.stdout, indent=2)
        print()


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "telemetry", None):
        from repro.telemetry import configure_telemetry
        role = {"work": "worker", "serve": "service"}.get(args.verb, "main")
        configure_telemetry(args.telemetry, role=role)

    if args.verb == "figure1":
        from repro.evaluation.figure1 import instruction_power_rows
        _emit(args, "figure1", instruction_power_rows())

    elif args.verb == "figure2":
        from repro.evaluation.figure2 import motivating_example_report
        _emit(args, "figure2", [motivating_example_report(x_limit=args.x_limit)])

    elif args.verb == "figure5":
        from repro.evaluation.figure5 import evaluate_suite, summarize
        rows = evaluate_suite(benchmarks=args.benchmarks, levels=args.levels,
                              frequency_modes=tuple(args.frequency_modes),
                              x_limit=args.x_limit,
                              engine=_engine(args.cache_dir, args.workers),
                              max_workers=args.workers)
        _emit(args, "figure5", [row.as_dict() for row in rows],
              meta=summarize(rows))

    elif args.verb == "figure6":
        from repro.evaluation.figure6 import solver_trajectories
        trajectories = solver_trajectories(args.benchmark, args.level)
        _emit(args, "figure6",
              [dict(row, sweep=sweep) for sweep, rows in trajectories.items()
               for row in rows],
              meta={"benchmark": args.benchmark, "opt_level": args.level})

    elif args.verb == "figure9":
        from repro.evaluation.figure9 import period_sweep
        series = period_sweep(benchmarks=args.benchmarks,
                              opt_level=args.level, x_limit=args.x_limit,
                              engine=_engine(args.cache_dir))
        _emit(args, "figure9", [row for rows in series.values() for row in rows])

    elif args.verb == "case-study":
        from repro.evaluation.case_study import case_study_report
        report = case_study_report(x_limit=args.x_limit,
                                   engine=_engine(args.cache_dir))
        _emit(args, "case_study", [report])

    elif args.verb == "explore":
        from repro.explore import execute_sweep
        sweep = _sweep_from_args(args, parser)
        if args.resume and not args.output:
            parser.error("--resume requires --output (the store to resume)")
        if args.distributed is not None and args.recheck:
            parser.error("--recheck is not supported with --distributed; "
                         "run it in-process first")
        if args.distributed is not None and args.workers is not None:
            parser.error("--workers configures the in-process pool; with "
                         "--distributed N the fleet size is N")
        if args.distributed is None and (args.batch_size is not None
                                         or args.lease_timeout is not None):
            parser.error("--batch-size/--lease-timeout tune the lease "
                         "protocol; they require --distributed (or "
                         "serve/submit)")
        store = ResultStore(args.output) if args.output else None
        if args.distributed is not None:
            summary = execute_sweep(
                sweep, store=store, name=args.name, shard=args.shard,
                resume=args.resume, workers=args.distributed,
                progress=args.progress,
                checkpoint_every=args.checkpoint_every,
                batch_size=args.batch_size,
                lease_timeout=args.lease_timeout,
                cache_dir=args.cache_dir)
        else:
            summary = execute_sweep(
                sweep, store=store, name=args.name, shard=args.shard,
                resume=args.resume, recheck=args.recheck,
                engine=_engine(args.cache_dir, args.workers),
                max_workers=args.workers, progress=args.progress,
                checkpoint_every=args.checkpoint_every)
        if store is not None:
            _print_sweep_summary(summary)
        else:
            json.dump({"meta": summary["meta"],
                       "records": summary["records"]}, sys.stdout, indent=2)
            print()

    elif args.verb == "work":
        from repro.distrib import run_worker
        from repro.distrib.worker import format_worker_stats
        stats = run_worker(args.host, args.port, throttle=args.throttle,
                           cache_dir=args.cache_dir)
        print(format_worker_stats(stats), file=sys.stderr)

    elif args.verb == "serve":
        import time as _time
        from repro.distrib import (DEFAULT_CHECKPOINT_EVERY,
                                   DEFAULT_LEASE_TIMEOUT, PROTOCOL_VERSION,
                                   SweepService)
        store = ResultStore(args.output) if args.output else None
        service = SweepService(
            host=args.host, port=args.port, store=store,
            lease_timeout=(DEFAULT_LEASE_TIMEOUT if args.lease_timeout is None
                           else args.lease_timeout),
            checkpoint_every=(DEFAULT_CHECKPOINT_EVERY
                              if args.checkpoint_every is None
                              else args.checkpoint_every),
            drain_when_idle=args.drain, progress=args.progress)
        service.start()
        print(f"service listening on {args.host}:{service.port} "
              f"(protocol version {PROTOCOL_VERSION})",
              file=sys.stderr, flush=True)
        failed = False
        try:
            while not (args.drain and service.drained()):
                _time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            for sweep_name, snap in sorted(
                    service.status_snapshot().items()):
                print(_format_sweep_line(sweep_name, snap),
                      file=sys.stderr, flush=True)
                failed = failed or snap["status"] == "failed"
            service.shutdown()
        return 1 if failed else 0

    elif args.verb == "submit":
        from repro.distrib import ClientError, submit_sweep, wait_for_sweep
        sweep = _sweep_from_args(args, parser)
        try:
            reply = submit_sweep(
                args.host, args.port, sweep, args.name,
                priority=args.priority, batch_size=args.batch_size,
                resume=args.resume, checkpoint_every=args.checkpoint_every,
                store=str(args.output) if args.output else None)
            print(f"submitted {reply['sweep']}: {reply['cells']} cells "
                  f"({reply['pending']} to compute, priority "
                  f"{reply['priority']})")
            if args.wait:
                snap = wait_for_sweep(args.host, args.port, args.name)
                print(_format_sweep_line(args.name, snap))
                return 0 if snap["status"] == "completed" else 1
        except ClientError as error:
            print(f"submit failed: {error}", file=sys.stderr)
            return 1

    elif args.verb == "status":
        from repro.distrib import ClientError, sweep_status
        try:
            sweeps = sweep_status(args.host, args.port, args.name)
        except ClientError as error:
            print(f"status failed: {error}", file=sys.stderr)
            return 1
        if not sweeps:
            print("no sweeps hosted")
        for sweep_name, snap in sorted(sweeps.items()):
            print(_format_sweep_line(sweep_name, snap))

    elif args.verb == "cancel":
        from repro.distrib import ClientError, cancel_sweep
        try:
            snap = cancel_sweep(args.host, args.port, args.name)
        except ClientError as error:
            print(f"cancel failed: {error}", file=sys.stderr)
            return 1
        print(f"cancelled {args.name}: keeping "
              f"{snap['done']}/{snap['total']} cells "
              f"({snap['leased']} still draining)")

    elif args.verb == "merge":
        stats = ResultStore(args.output).merge(
            args.name, args.stores, require_disjoint=args.require_disjoint)
        print(f"merged {stats['records']} cells from {stats['sources']} "
              f"stores into {stats['path']} "
              f"({stats['duplicates']} duplicates, all bitwise-identical)")

    elif args.verb == "analyze":
        from repro.analysis import (audit_program_superblocks,
                                    verify_machine_program)
        from repro.placement.optimizer import (FlashRAMOptimizer,
                                               PlacementConfig)
        from repro.sim import Simulator
        do_lint = args.lint or not (args.lint or args.audit)
        do_audit = args.audit or not (args.lint or args.audit)
        benchmarks = args.benchmarks or list(BENCHMARK_NAMES)
        levels = args.levels or list(ALL_OPT_LEVELS)
        engine = _engine(args.cache_dir)
        rows: List[dict] = []
        failures = 0

        def _report_lint(name, level, stage, program):
            diagnostics = verify_machine_program(program)
            for diagnostic in diagnostics:
                print(f"{name}/{level} [{stage}] {diagnostic}")
            return len(diagnostics)

        for name in benchmarks:
            for level in levels:
                # A private copy: placement rewrites the program in place.
                program = engine.compile_benchmark_mutable(name, level)
                row = {"benchmark": name, "opt_level": level}
                if do_lint:
                    row["lint_pristine"] = _report_lint(
                        name, level, "pristine", program)
                    failures += row["lint_pristine"]
                # The same transformation the evaluation applies: lint must
                # hold after relocation/instrumentation, and the audit wants
                # traces through instrumented code, not just pristine flash.
                FlashRAMOptimizer(program, config=PlacementConfig(
                    x_limit=args.x_limit, solver="greedy")).optimize()
                if do_lint:
                    row["lint_placed"] = _report_lint(
                        name, level, "placed", program)
                    failures += row["lint_placed"]
                if do_audit:
                    Simulator(program).run()
                    nodes, findings = audit_program_superblocks(program)
                    for finding in findings:
                        print(f"{name}/{level} [audit] {finding}")
                    row["superblock_nodes"] = nodes
                    row["audit_findings"] = len(findings)
                    failures += len(findings)
                rows.append(row)
        checks = [label for label, active in (("lint", do_lint),
                                              ("audit", do_audit)) if active]
        print(f"analyze ({'+'.join(checks)}): "
              f"{len(rows)} benchmark/level cells, {failures} findings")
        if args.output:
            _emit(args, "analyze", rows,
                  meta={"checks": checks, "findings": failures})
        return 1 if failures else 0

    elif args.verb == "metrics":
        from repro.distrib import protocol
        from repro.telemetry import render_prometheus
        stream = protocol.connect(args.host, args.port)
        try:
            stream.send({"type": "metrics"})
            reply = stream.recv()
        finally:
            stream.close()
        if reply is None or reply.get("type") != "metrics":
            print(f"unexpected reply from the service: {reply!r}",
                  file=sys.stderr)
            return 1
        sys.stdout.write(render_prometheus(reply["snapshot"]))

    elif args.verb == "stats":
        from repro.telemetry import render_trace_stats
        print(render_trace_stats(args.trace_dir))

    elif args.verb == "report":
        from repro.explore import report_from_store, write_report
        report = report_from_store(ResultStore(args.store), name=args.name)
        if args.output:
            for path in write_report(report, args.output).values():
                print(f"wrote {path}")
        else:
            json.dump(report, sys.stdout, indent=2)
            print()

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
