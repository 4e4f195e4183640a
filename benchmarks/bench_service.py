"""Perf smoke bench: adaptive lease tails vs the fixed-batch bound, bitwise.

One straggler scenario, recorded to ``BENCH_service.json``: a two-worker
fleet in which one worker sleeps ``throttle`` seconds per cell, driven
through the multi-sweep service (``execute_sweep_distributed`` hosts the
sweep on a private :class:`repro.distrib.SweepService`).  Had every lease
been a fixed ``batch_size`` cut, the straggler would park one full lease,
so its *sleep time alone* would bound the run from below at
``batch_size * throttle``.  The service's adaptive tail policy
(`adaptive_batch`) shrinks the cut with the remaining-work/fleet ratio
instead, so the straggler never parks more than a sliver of the sweep and
the fast worker absorbs the rest.

Recorded ``speedup`` is ``fixed_lower_bound / adaptive_wall`` — dividing
a *measured* adaptive wall into an *analytic* sleep-only bound makes the
ratio conservative (a real fixed run also pays compute) and stable across
runner generations; that is the leaf ``check_bench.py`` gates.  The bench
further asserts the distributed store is **bitwise identical** to a
monolithic ``execute_sweep`` of the same spec.

Run with::

    PYTHONPATH=src python benchmarks/bench_service.py [--output BENCH_service.json]
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from conftest import print_table

from repro.distrib import adaptive_batch, execute_sweep_distributed
from repro.engine import (
    ExperimentEngine,
    ProgramCache,
    ResultStore,
    atomic_write_json,
)
from repro.explore import SweepSpec, execute_sweep

SWEEP = SweepSpec(benchmarks=("crc32", "fdct"), x_limits=(1.1, 1.5),
                  flash_ram_ratios=(None, 2.5))
BATCH = 4
FLEET = 2
SPEEDUP_FLOOR = 1.3


def bench_adaptive_tail(root: Path) -> dict:
    # Monolithic reference: the bitwise baseline and the per-cell compute
    # cost the straggler margin self-calibrates against.
    mono = ResultStore(root / "mono")
    start = time.perf_counter()
    execute_sweep(SWEEP, store=mono,
                  engine=ExperimentEngine(cache=ProgramCache()),
                  max_workers=1)
    mono_s = time.perf_counter() - start
    per_cell = mono_s / SWEEP.size

    # throttle >> spawn + total compute, so the straggler's parked batch
    # would dominate every other cost of a fixed-batch run.
    throttle = max(2.0, 4 * per_cell + 3.0)
    fixed_lower_bound = BATCH * throttle
    # With this sweep the adaptive policy starts at the tail already:
    first_cut = adaptive_batch(SWEEP.size, fleet=FLEET, max_batch=BATCH)

    store = ResultStore(root / "adaptive")
    start = time.perf_counter()
    summary = execute_sweep_distributed(
        SWEEP, store=store, workers=FLEET, batch_size=BATCH,
        worker_options=[{"name": "slow", "throttle": throttle},
                        {"name": "fast"}])
    adaptive_s = time.perf_counter() - start
    bitwise = (store.path_for("sweep").read_bytes()
               == mono.path_for("sweep").read_bytes())
    assert bitwise, "the service-hosted store differs from the monolithic run"
    counts = summary["distrib"]["cells_by_worker"]

    record = {
        "cells": SWEEP.size,
        "monolithic_s": mono_s,
        "throttle_s_per_cell": throttle,
        "batch_size": BATCH,
        "adaptive_first_cut": first_cut,
        "fixed_lower_bound_s": fixed_lower_bound,
        "adaptive_s": adaptive_s,
        "speedup": fixed_lower_bound / adaptive_s,
        "straggler_cells_adaptive": sum(
            count for worker, count in counts.items()
            if worker.startswith("slow")),
        "bitwise_identical_adaptive": bitwise,
    }
    print_table("adaptive tails vs the fixed-batch sleep-only bound "
                "(1 straggler of 2 workers)",
                [record],
                ["cells", "throttle_s_per_cell", "fixed_lower_bound_s",
                 "adaptive_s", "speedup", "straggler_cells_adaptive"])
    assert record["speedup"] >= SPEEDUP_FLOOR, (
        f"adaptive tail speedup {record['speedup']:.2f}x over the fixed-batch "
        f"sleep-only bound is below the {SPEEDUP_FLOOR}x floor")
    return record


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--output", default=None, metavar="FILE")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as root:
        record = bench_adaptive_tail(Path(root))

    if args.output:
        atomic_write_json(args.output, {"straggler_tail": record})
        print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
