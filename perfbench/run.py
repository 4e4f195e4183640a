#!/usr/bin/env python3
"""Sweep benchmark: cells/s, set-up time and memory of the placement pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload flat_grid --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes
    python3 perfbench/run.py --phase-table perfbench/records/flat_grid-seed0.json

Each workload (see ``grids.py``) runs one sweep grid through the public sweep
API, checks every cell's outcome (``outcome.py``) and prints a table, then as
its last stdout line one JSON object: ``correct``, ``attempted``, ``failed``
(cells) and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``cells_per_s``: median over steady passes of cells / pass wall seconds;
* ``cell_p50_ms``/``cell_p90_ms``: Harrell-Davis quantiles of per-cell
  wall time.  In-process, one sample per cell, its median over the
  passes, timed by the
  ``progress(done, total)`` callback of ``run_sweep_cells``; for
  ``fleet_sweep`` one sample per pass, the pass
  wall amortised over workers and cells (the cells run in other processes);
* ``setup_s``: median of several cold fills of the cache the passes read
  (a fresh ``ProgramCache`` in-process, the ``cache_dir`` disk tier for the
  fleet), kept out of ``cells_per_s``;
* ``peak_rss_mb``: the larger peak RSS of this process and its children.

A cell that raises or fails its outcome check counts in ``failed``.

``--trace 1`` produces the per-layer metrics from separate passes: the
benchmark's own wrappers (``layers.py``) time each layer's public entry
points; traced passes alternate with untraced ones so the tracing overhead
is measured, and their records must be byte-identical.  The same pass run
under the program's own telemetry and reduced by
``repro.telemetry.stats.trace_stats`` cross-checks the phase shares.  The
fleet's layers run in spawned workers, so its ``distrib.*`` numbers come
from the service summary and its other layers from an in-process traced
pass over the same cells.

BLAS/OpenMP pools are pinned to one thread for the whole process tree
before anything imports numpy: under default OpenBLAS threading the
2-worker fleet oversubscribes the cores and its wall time measures the
scheduler, not the program.  Records (environment, metrics, phase tables)
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("flat_grid", "pipelined_grid", "fleet_sweep")
SETUP_REPEATS = 5
FLEET_CHECKPOINT_EVERY = 8

#: (name, unit) of every end-to-end metric, printed with --trace 0.
END_TO_END = (("cells_per_s", "1/s"), ("cell_p50_ms", "ms"),
              ("cell_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: (name, unit) of every per-layer metric, printed with --trace 1.  Seconds
#: are exclusive and per pass over the grid; counts are per pass.
PER_LAYER = (
    ("codegen.compile_s", "s"), ("codegen.programs", "count"),
    ("cache.lookup_s", "s"), ("cache.copy_s", "s"), ("cache.copies", "count"),
    ("placement.params_s", "s"), ("placement.params_calls", "count"),
    ("placement.params_unique_share", "ratio"),
    ("placement.build_s", "s"), ("placement.ilp_vars", "count"),
    ("placement.ilp_rows", "count"),
    ("placement.lp_s", "s"), ("placement.bb_nodes", "count"),
    ("placement.lp_pivots", "count"), ("placement.warm_solves", "count"),
    ("placement.cold_solves", "count"),
    ("placement.unresolved_nodes", "count"),
    ("placement.optimal_share", "ratio"), ("placement.other_s", "s"),
    ("transform.apply_s", "s"), ("transform.blocks_moved", "count"),
    ("transform.instrumented", "count"),
    ("sim.baseline_s", "s"), ("sim.optimized_s", "s"), ("sim.runs", "count"),
    ("sim.instructions", "count"), ("sim.minstr_per_s", "Minstr/s"),
    ("sim.warmup_s", "s"),
    ("store.record_s", "s"), ("store.write_s", "s"), ("store.bytes", "B"),
    ("distrib.parallel_efficiency", "ratio"), ("distrib.imbalance", "ratio"),
    ("distrib.requeued_batches", "count"),
    ("distrib.duplicate_records", "count"),
    ("engine.overhead_s", "s"),
    ("placement.cell_share", "ratio"), ("sim.cell_share", "ratio"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
)


# --------------------------------------------------------------------------- #
# Environment
# --------------------------------------------------------------------------- #
def pin_thread_pools() -> dict:
    """One thread per BLAS/OpenMP pool, inherited by every child process."""
    for name in THREAD_POOL_VARS:
        os.environ[name] = "1"
    return {name: os.environ[name] for name in THREAD_POOL_VARS}


def calibration_seconds() -> float:
    """Best of three runs of a fixed pure-Python loop (a machine yardstick)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for index in range(3_000_000):
            total = (total + index * index) % 1_000_003
        best = min(best, time.perf_counter() - start)
    if total < 0:  # keeps the loop's result alive
        raise RuntimeError("calibration loop overflowed")
    return best


def environment(pin: dict) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "thread_pin": pin,
            "calibration_s": calibration_seconds()}


def become_subreaper() -> None:
    """Adopt orphaned descendants, so ``reap_children`` can wait for them.

    Linux only (``PR_SET_CHILD_SUBREAPER``); elsewhere a no-op.
    """
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> list:
    """Pids whose parent is this process, read from ``/proc``."""
    pids = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(entry.name))
    return pids


def reap_children(grace: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    A fleet pass spawns workers and, with them, multiprocessing's resource
    tracker, which otherwise outlives this process as an unreaped orphan.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace
    sig = signal.SIGTERM
    while True:
        for pid in _child_pids():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.05)
            if time.monotonic() > deadline:
                sig = signal.SIGKILL


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def percentile(values, fraction: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of a quantile of *values*.

    A Beta-weighted mean of all order statistics rather than a single one:
    a grid's cell times form clusters (cells with and without a baseline
    simulation, tight and loose X_limits), and one order statistic jumps a
    whole cluster gap when noise or a seed moves one cell across it.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 1:
        return ordered[0]
    a, b = (count + 1) * fraction, (count + 1) * (1 - fraction)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    width = 1.0 / (count * steps)
    weights = [sum(math.exp(log_norm + (a - 1) * math.log(t)
                            + (b - 1) * math.log(1 - t))
                   for t in ((index * steps + k + 0.5) * width
                             for k in range(steps)))
               for index in range(count)]
    return (sum(w * v for w, v in zip(weights, ordered)) / sum(weights))


# --------------------------------------------------------------------------- #
# One pass over the grid
# --------------------------------------------------------------------------- #
def cold_setup(sweep, cache_dir=None):
    """Compile every program of *sweep* into a fresh cache; (seconds, cache)."""
    from repro.engine.cache import ProgramCache
    cache = ProgramCache(cache_dir=None if cache_dir is None else str(cache_dir))
    start = time.perf_counter()
    for benchmark in sweep.benchmarks:
        for level in sweep.opt_levels:
            cache.get_benchmark(benchmark, level)
    return time.perf_counter() - start, cache


def _call(tracer, name, function, *args, **kwargs):
    if tracer is None:
        return function(*args, **kwargs)
    return tracer.span(name, function, *args, **kwargs)


def run_pass(sweep, cache, store_dir: Path, tracer=None) -> dict:
    """Run the grid sequentially in-process into a fresh keyed store."""
    from layers import traced
    from repro.engine import ExperimentEngine, ResultStore
    from repro.explore.sweep import cell_record, run_sweep_cells

    cells = sweep.cells()
    engine = ExperimentEngine(cache=cache, max_workers=1)
    store = ResultStore(store_dir)
    stamps = []

    def progress(done, _total):
        stamps.append(time.perf_counter())
        if tracer is not None:
            tracer.cell = done

    with traced(tracer):
        start = time.perf_counter()
        runs = run_sweep_cells(cells, engine, max_workers=1, progress=progress)
        records = [_call(tracer, "store.record", cell_record, cell, run)
                   for cell, run in zip(cells, runs)]
        path = _call(tracer, "store.write", store.save_keyed, "sweep",
                     records, meta=sweep.meta())
        end = time.perf_counter()
    edges = [start] + stamps
    return {"wall": end - start, "cell_wall": stamps[-1] - start,
            "cell_times": [b - a for a, b in zip(edges, edges[1:])],
            "records": records, "store_bytes": path.stat().st_size}


def fleet_pass(sweep, disk_dir: Path, store_dir: Path, workers: int) -> dict:
    """Run the grid through a spawned service + *workers* worker processes."""
    from repro.engine import ResultStore
    from repro.explore import execute_sweep

    start = time.perf_counter()
    summary = execute_sweep(sweep, store=ResultStore(store_dir), name="fleet",
                            workers=workers,
                            checkpoint_every=FLEET_CHECKPOINT_EVERY,
                            cache_dir=str(disk_dir))
    wall = time.perf_counter() - start
    return {"wall": wall, "records": summary["records"],
            "distrib": summary["distrib"],
            "store_bytes": Path(summary["path"]).stat().st_size}


def canonical(records) -> str:
    """Byte form of a pass's records, in key order."""
    return json.dumps(sorted(records, key=lambda r: r["cell_key"]),
                      sort_keys=True)


# --------------------------------------------------------------------------- #
# The benchmark run
# --------------------------------------------------------------------------- #
class Run:
    """State of one ``--workload`` run: grid, checks, scratch space."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        from grids import WORKLOADS, sweep_for
        from outcome import load_expected
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.sweep = sweep_for(workload, seed)
        self.cells = self.sweep.size
        self.expected = load_expected(self.workload.grid) if seed == 0 else None
        self.workers = max(1, min(2, os.cpu_count() or 1))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None      # canonical records of the first pass
        self.notes = {}
        self.cross_check = None
        self.spans = []
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        return self.work / f"{label}-{self._dirs}"

    def check(self, records, label: str) -> None:
        """Count one pass's cells and fail those whose outcome is wrong."""
        from outcome import check_records, failed_cells
        self.attempted += self.cells
        problems = check_records(records, self.cells, self.expected)
        body = canonical(records)
        if self.reference is None:
            self.reference = body
        elif body != self.reference:
            problems.append(f"{label}: records differ from the first pass")
        if problems:
            self.failed += (self.cells if body != self.reference
                            else failed_cells(problems, self.cells))
            self.problems.extend(f"{label}: {p}" for p in problems[:5])

    def guarded(self, label: str, function, *args, **kwargs):
        """Run one pass; a pass that raises fails all its cells."""
        try:
            return function(*args, **kwargs)
        except Exception as error:  # reported; the run goes on
            self.attempted += self.cells
            self.failed += self.cells
            self.problems.append(f"{label}: {type(error).__name__}: {error}")
            return None

    # ------------------------------------------------------------------ #
    def setups(self):
        """SETUP_REPEATS cold fills; returns (median seconds, last cache)."""
        times, cache = [], None
        for _ in range(SETUP_REPEATS):
            disk = (None if self.workload.in_process
                    else self.fresh_dir("disk"))
            seconds, cache = cold_setup(self.sweep, disk)
            times.append(seconds)
        return statistics.median(times), cache

    def end_to_end(self) -> dict:
        setup_s, cache = self.setups()

        def measure(label):
            if self.workload.in_process:
                return run_pass(self.sweep, cache, self.fresh_dir(label))
            return fleet_pass(self.sweep, Path(cache.cache_dir),
                              self.fresh_dir(label), self.workers)

        measure("warmup")  # decode caches, copy snapshots, page cache
        passes, attempts = [], 0
        deadline = time.perf_counter() + self.seconds
        while attempts == 0 or time.perf_counter() < deadline:
            attempts += 1
            result = self.guarded(f"pass {attempts}", measure, "store")
            if result is not None:
                self.check(result["records"], f"pass {attempts}")
                passes.append(result)
        if not passes:
            return {}
        if self.workload.in_process:
            # One sample per cell: its median over the passes.  The grid's
            # cells are a fixed mix of light and heavy ones, so pooling raw
            # times would let pass-to-pass noise reorder cells around p90.
            samples = [statistics.median(p["cell_times"][index]
                                         for p in passes)
                       for index in range(self.cells)]
        else:
            samples = [p["wall"] * self.workers / self.cells for p in passes]
        metrics = {
            "cells_per_s": statistics.median(self.cells / p["wall"]
                                             for p in passes),
            "cell_p50_ms": 1e3 * percentile(samples, 0.5),
            "cell_p90_ms": 1e3 * percentile(samples, 0.9),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        self.notes = {"passes": len(passes), "cell_samples": len(samples),
                      "pass_walls": [p["wall"] for p in passes]}
        return metrics

    # ------------------------------------------------------------------ #
    def traced_in_process(self, cache):
        """Alternate untraced and traced passes after one warm-up pass."""
        from layers import Tracer
        tracer = Tracer()
        run_pass(self.sweep, cache, self.fresh_dir("warmup"))
        plain, traced_passes = [], []
        deadline = time.perf_counter() + self.seconds
        while len(traced_passes) < 2 or time.perf_counter() < deadline:
            plain.append(run_pass(self.sweep, cache, self.fresh_dir("store")))
            self.check(plain[-1]["records"], f"untraced {len(plain)}")
            traced_passes.append(run_pass(self.sweep, cache,
                                          self.fresh_dir("store"), tracer))
            self.check(traced_passes[-1]["records"],
                       f"traced {len(traced_passes)}")
        return tracer, plain, traced_passes

    def warmup_probe(self, cache) -> float:
        """Decode + superblock tracing seconds of one pass's cold sims.

        Every optimized simulation runs on a fresh program copy, so it pays
        the warm-up; the probe times a first run and an immediate rerun on
        one copy per (program, timing model) and charges the difference to
        each cold simulation of that program.
        """
        from repro.sim.cpu import Simulator
        per_program = {}
        for cell in self.sweep.cells():
            spec = cell.spec
            key = (spec.benchmark, spec.opt_level, spec.timing_model)
            if key not in per_program:
                program = cache.get_benchmark_mutable(spec.benchmark,
                                                      spec.opt_level)
                first = _timed(Simulator(program, timing_model=key[2]).run)
                rerun = _timed(Simulator(program, timing_model=key[2]).run)
                per_program[key] = max(first - rerun, 0.0)
        return sum(per_program[(c.spec.benchmark, c.spec.opt_level,
                                c.spec.timing_model)]
                   for c in self.sweep.cells())

    def telemetry_pass(self, measure):
        """One pass with the program's own telemetry on; (pass, stats)."""
        from repro.telemetry import configure_telemetry, reset_telemetry
        from repro.telemetry.stats import trace_stats
        trace_dir = self.fresh_dir("telemetry")
        configure_telemetry(str(trace_dir), role="bench")
        try:
            result = measure()
        finally:
            reset_telemetry(clear_env=True)
        return result, trace_stats(str(trace_dir))

    def per_layer(self) -> dict:
        from layers import (CELL_LAYERS, PLACEMENT_LAYERS, SIM_LAYERS,
                            Tracer, traced)
        setup_tracer = Tracer()
        with traced(setup_tracer):
            disk = (None if self.workload.in_process
                    else self.fresh_dir("disk"))
            _seconds, setup_cache = cold_setup(self.sweep, disk)
        setup_self = setup_tracer.self_seconds()
        cache = (setup_cache if self.workload.in_process
                 else cold_setup(self.sweep)[1])

        tracer, plain, traced_passes = self.traced_in_process(cache)
        runs = len(traced_passes)
        self_s = {name: value / runs
                  for name, value in tracer.self_seconds().items()}
        counts = {name: value / runs for name, value in tracer.counts.items()}
        cell_wall = statistics.mean(p["cell_wall"] for p in traced_passes)
        in_cell = sum(self_s.get(name, 0.0) for name in CELL_LAYERS)
        sim_s = sum(self_s.get(name, 0.0) for name in SIM_LAYERS)
        plain_rate = statistics.median(self.cells / p["wall"] for p in plain)
        traced_rate = statistics.median(self.cells / p["wall"]
                                        for p in traced_passes)
        solves = max(counts.get("placement.ilp_solves", 0), 1)
        sequential_wall = statistics.median(p["wall"] for p in plain)
        metrics = {
            "codegen.compile_s": setup_self.get("codegen.compile", 0.0),
            "codegen.programs": setup_tracer.counts["codegen.programs"],
            "cache.lookup_s": self_s.get("cache.lookup", 0.0),
            "cache.copy_s": self_s.get("cache.copy", 0.0),
            "cache.copies": counts.get("cache.copies", 0),
            "placement.params_s": self_s.get("placement.params", 0.0),
            "placement.params_calls": counts.get("placement.params_calls", 0),
            "placement.params_unique_share": (
                tracer.params_unique
                / max(counts.get("placement.params_calls", 0), 1)),
            "placement.build_s": self_s.get("placement.build", 0.0),
            "placement.ilp_vars": counts.get("placement.ilp_vars", 0),
            "placement.ilp_rows": counts.get("placement.ilp_rows", 0),
            "placement.lp_s": self_s.get("placement.lp", 0.0),
            "placement.bb_nodes": counts.get("placement.bb_nodes", 0),
            "placement.lp_pivots": counts.get("placement.lp_pivots", 0),
            "placement.warm_solves": counts.get("placement.warm_solves", 0),
            "placement.cold_solves": counts.get("placement.cold_solves", 0),
            "placement.unresolved_nodes": counts.get(
                "placement.unresolved_nodes", 0),
            "placement.optimal_share": counts.get("placement.optimal", 0)
            / solves,
            "placement.other_s": self_s.get("placement.other", 0.0),
            "transform.apply_s": self_s.get("transform.apply", 0.0),
            "transform.blocks_moved": counts.get("transform.blocks_moved", 0),
            "transform.instrumented": counts.get("transform.instrumented", 0),
            "sim.baseline_s": self_s.get("sim.baseline", 0.0),
            "sim.optimized_s": self_s.get("sim.optimized", 0.0),
            "sim.runs": counts.get("sim.runs", 0),
            "sim.instructions": counts.get("sim.instructions", 0),
            "sim.minstr_per_s": (counts.get("sim.instructions", 0) / sim_s
                                 / 1e6 if sim_s else 0.0),
            "sim.warmup_s": self.warmup_probe(cache),
            "store.record_s": self_s.get("store.record", 0.0),
            "store.write_s": self_s.get("store.write", 0.0),
            "store.bytes": statistics.median(p["store_bytes"]
                                             for p in traced_passes),
            # The in-process executor is one worker: efficiency and balance
            # are 1 by construction, and nothing is leased or duplicated.
            "distrib.parallel_efficiency": 1.0,
            "distrib.imbalance": 1.0,
            "distrib.requeued_batches": 0,
            "distrib.duplicate_records": 0,
            "engine.overhead_s": cell_wall - in_cell,
            "placement.cell_share": sum(self_s.get(name, 0.0)
                                        for name in PLACEMENT_LAYERS)
            / cell_wall,
            "sim.cell_share": sim_s / cell_wall,
            "trace.coverage": in_cell / cell_wall,
            "trace.overhead": plain_rate / traced_rate - 1.0,
        }
        self.notes = {"untraced_passes": len(plain), "traced_passes": runs,
                      "untraced_cells_per_s": plain_rate,
                      "traced_cells_per_s": traced_rate,
                      "cell_wall_s": cell_wall,
                      "params_unique": tracer.params_unique,
                      "params_calls_per_pass": tracer.counts[
                          "placement.params_calls"] // runs,
                      "spans": len(tracer.spans)}

        # Second ruler: a cold pass (fresh cache, as a ``repro-eval explore
        # --telemetry`` run sees it) under the program's own telemetry.  The
        # benchmark's side adds its traced set-up compile to a steady pass.
        from repro.engine.cache import ProgramCache
        tel_pass, stats = self.telemetry_pass(
            lambda: run_pass(self.sweep, ProgramCache(),
                             self.fresh_dir("store")))
        self.check(tel_pass["records"], "telemetry pass")
        setup_compile = sum(setup_self.values())
        cold_wall = (statistics.mean(p["wall"] for p in traced_passes)
                     + setup_compile)
        bench_shares = {
            "placement.solve": sum(self_s.get(name, 0.0)
                                   for name in PLACEMENT_LAYERS) / cold_wall,
            "simulate": sim_s / cold_wall,
            "compile": (setup_compile + self_s.get("cache.lookup", 0.0)
                        + self_s.get("cache.copy", 0.0)) / cold_wall,
        }
        self.cross_check = _cross_check(bench_shares, stats)

        if not self.workload.in_process:
            disk = Path(setup_cache.cache_dir)
            off = self.guarded("fleet pass", fleet_pass, self.sweep, disk,
                               self.fresh_dir("store"), self.workers)
            on = self.guarded(
                "telemetry fleet pass", lambda: self.telemetry_pass(
                    lambda: fleet_pass(self.sweep, disk,
                                       self.fresh_dir("store"),
                                       self.workers)))
            if off is not None:
                self.check(off["records"], "fleet pass")
                by_worker = list(off["distrib"]["cells_by_worker"].values())
                metrics.update({
                    "distrib.parallel_efficiency": sequential_wall
                    / (off["wall"] * self.workers),
                    "distrib.imbalance": max(by_worker)
                    / statistics.mean(by_worker),
                    "distrib.requeued_batches": off["distrib"][
                        "requeued_batches"],
                    "distrib.duplicate_records": off["distrib"][
                        "duplicate_records"],
                    "store.bytes": off["store_bytes"],
                })
                self.notes["fleet_wall_s"] = off["wall"]
                self.notes["cells_by_worker"] = off["distrib"][
                    "cells_by_worker"]
            if on is not None:
                fleet_on, fleet_stats = on
                self.check(fleet_on["records"], "telemetry fleet pass")
                self.notes["fleet_phases"] = _phase_shares(fleet_stats)
                if off is not None:
                    metrics["trace.overhead"] = (fleet_on["wall"]
                                                 / off["wall"] - 1.0)
        self.spans = tracer.spans
        return metrics


def _timed(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def _phase_shares(stats: dict) -> dict:
    """Exclusive share of wall clock per telemetry phase (``stats`` verb)."""
    wall = stats["wall_clock_s"] or 1.0
    return {name: entry["exclusive_s"] / wall
            for name, entry in sorted(stats["phases"].items())}


def _cross_check(bench_shares: dict, stats: dict) -> dict:
    telemetry = _phase_shares(stats)
    rows = {name: {"bench": share, "telemetry": telemetry.get(name, 0.0),
                   "delta_points": 100.0 * (share - telemetry.get(name, 0.0))}
            for name, share in bench_shares.items()}
    return {"phases": rows, "telemetry_coverage": stats["coverage"],
            "max_delta_points": max(abs(row["delta_points"])
                                    for row in rows.values())}


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_phase_table(cross_check: dict) -> None:
    print(f"  {'phase':<18} {'benchmark':>10} {'repro-eval stats':>17} "
          f"{'delta':>8}")
    for name, row in cross_check["phases"].items():
        print(f"  {name:<18} {100 * row['bench']:>9.1f}% "
              f"{100 * row['telemetry']:>16.1f}% "
              f"{row['delta_points']:>+7.1f}pt")


def report(run: Run, trace: int, metrics: dict, env: dict) -> dict:
    from outcome import outcome_digest
    units = dict(PER_LAYER if trace else END_TO_END)
    payload = {"correct": run.failed == 0 and run.attempted > 0,
               "attempted": run.attempted, "failed": run.failed,
               "metrics": {name: {"value": metrics[name], "unit": units[name]}
                           for name in units if name in metrics}}
    print(f"workload {run.workload.name} seed {run.seed} trace {trace}: "
          f"{run.cells} cells, X_limit {list(run.sweep.x_limits)}, "
          f"timing {list(run.sweep.timing_models)}")
    print(f"env: nproc {env['nproc']}, python {env['python']}, numpy "
          f"{env['numpy']}, calibration {env['calibration_s']:.4f} s, "
          f"pin {' '.join(f'{k}={v}' for k, v in env['thread_pin'].items())}")
    print(f"cells: {run.attempted} attempted, {run.failed} failed "
          f"(failed_cell_share "
          f"{run.failed / max(run.attempted, 1):.4g}), outcome digest "
          f"{outcome_digest(json.loads(run.reference)) if run.reference else '-'}")
    for problem in run.problems[:10]:
        print(f"  FAIL {problem}")
    for name, unit in (PER_LAYER if trace else END_TO_END):
        if name in metrics:
            print(f"  {name:<32} {_format(metrics[name]):>14} {unit}")
    notes = run.notes
    if not trace and "cells_per_s" in metrics:
        print(f"  ({notes['passes']} passes; cell percentiles over "
              f"{notes['cell_samples']} samples; "
              f"{metrics['cells_per_s'] * env['calibration_s']:.4g} cells "
              f"per calibration unit)")
    if trace:
        print(f"  params_unique_share = {notes['params_unique']}/"
              f"{notes['params_calls_per_pass']}; untraced "
              f"{notes['untraced_cells_per_s']:.4g} vs traced "
              f"{notes['traced_cells_per_s']:.4g} cells/s")
        print("phase shares, benchmark wrappers vs telemetry reducer:")
        print_phase_table(run.cross_check)
        if "fleet_phases" in notes:
            print("fleet worker phases (telemetry reducer): " + ", ".join(
                f"{name} {100 * share:.1f}%"
                for name, share in notes["fleet_phases"].items()))
    record = dict(payload, workload=run.workload.name, seed=run.seed,
                  trace=trace, env=env, x_limits=list(run.sweep.x_limits),
                  problems=run.problems, notes=notes,
                  outcome_digest=(outcome_digest(json.loads(run.reference))
                                  if run.reference else None))
    if trace:
        record["cross_check"] = run.cross_check
    OUT.mkdir(exist_ok=True)
    stem = f"{run.workload.name}-seed{run.seed}-trace{trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(run.spans) + "\n")
    return payload


def phase_table(path: str) -> int:
    """Print the ROADMAP phase table from a committed traced record."""
    record = json.loads(Path(path).read_text())
    print(f"{record['workload']} seed {record['seed']}: phase shares of wall "
          f"time (calibration {record['env']['calibration_s']:.4f} s)")
    print_phase_table(record["cross_check"])
    return 0


def run_all(seconds: int) -> int:
    """Every workload untraced then traced, in separate processes."""
    results = {}
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", "0", "--seconds",
                 str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = completed.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if completed.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            status |= 0 if result["correct"] else 1
            results[(workload, trace)] = result["metrics"]
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        print()
        print(f"{'metric':<32} {'unit':<9}" + "".join(
            f"{name:>16}" for name in WORKLOAD_NAMES))
        for name, unit in table:
            cells = [results.get((w, trace), {}).get(name, {}).get("value")
                     for w in WORKLOAD_NAMES]
            print(f"{name:<32} {unit:<9}" + "".join(
                f"{'-' if v is None else _format(v):>16}" for v in cells))
    return status


def write_expected() -> int:
    """Regenerate ``expected/*.json`` from seed 0 via ``execute_sweep``."""
    from grids import sweep_for
    from outcome import write_expected as write
    from repro.explore import execute_sweep
    for grid in ("flat_grid", "pipelined_grid"):
        summary = execute_sweep(sweep_for(grid, 0), max_workers=1)
        print(write(grid, summary["records"]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase-table", metavar="RECORD")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    pin = pin_thread_pools()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.phase_table:
        return phase_table(args.phase_table)
    if args.write_expected:
        return write_expected()
    if args.workload == "all":
        return run_all(int(args.seconds))

    become_subreaper()
    env = environment(pin)
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        metrics = run.per_layer() if args.trace else run.end_to_end()
        payload = report(run, args.trace, metrics, env)
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
