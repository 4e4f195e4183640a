"""Perf smoke bench: dynamic batch leasing vs static sharding, bitwise.

One straggler scenario, recorded to ``BENCH_distrib.json``: a two-worker
fleet in which one worker sleeps ``throttle`` seconds per cell (a
manufactured straggler).  Under the PR 3 static ``--shard i/N`` partition
the straggler would own half the cells, so its *sleep time alone* bounds a
static run from below at ``ceil(cells/2) * throttle``.  The sweep service
instead leases batch-by-batch, so the fast worker absorbs
almost everything and the run finishes in roughly one straggler cell plus
the fast worker's compute.

Recorded ``speedup`` is ``static_lower_bound / dynamic_wall`` — dividing a
*measured* dynamic wall into an *analytic* sleep-only bound makes the ratio
conservative (a real static run also pays compute) and stable across runner
generations.  The bench also asserts the distributed store is **bitwise
identical** to a monolithic ``execute_sweep`` of the same spec.

Run with::

    PYTHONPATH=src python benchmarks/bench_distrib.py [--output BENCH_distrib.json]
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from conftest import print_table

from repro.distrib import execute_sweep_distributed
from repro.engine import (
    ExperimentEngine,
    ProgramCache,
    ResultStore,
    atomic_write_json,
)
from repro.explore import SweepSpec, execute_sweep

SWEEP = SweepSpec(benchmarks=("crc32", "fdct"), x_limits=(1.1, 1.5),
                  flash_ram_ratios=(None, 2.5))
SPEEDUP_FLOOR = 1.3


def bench_straggler(root: Path) -> dict:
    # Monolithic reference: the bitwise baseline and the per-cell compute
    # cost the straggler margin self-calibrates against.
    mono = ResultStore(root / "mono")
    start = time.perf_counter()
    execute_sweep(SWEEP, store=mono,
                  engine=ExperimentEngine(cache=ProgramCache()),
                  max_workers=1)
    mono_s = time.perf_counter() - start
    per_cell = mono_s / SWEEP.size

    # throttle >> spawn + total compute, so the sleep-only static bound
    # dominates every overhead of the dynamic run.
    throttle = max(2.0, 4 * per_cell + 3.0)
    static_share = SWEEP.size - SWEEP.size // 2
    static_lower_bound = static_share * throttle

    dist = ResultStore(root / "dist")
    start = time.perf_counter()
    summary = execute_sweep_distributed(
        SWEEP, store=dist, workers=2, batch_size=1,
        worker_options=[{"name": "slow", "throttle": throttle},
                        {"name": "fast"}])
    dynamic_s = time.perf_counter() - start

    bitwise = (dist.path_for("sweep").read_bytes()
               == mono.path_for("sweep").read_bytes())
    assert bitwise, "distributed store differs from the monolithic run"
    speedup = static_lower_bound / dynamic_s
    counts = summary["distrib"]["cells_by_worker"]
    slow_cells = sum(count for worker, count in counts.items()
                     if worker.startswith("slow"))

    record = {
        "cells": SWEEP.size,
        "monolithic_s": mono_s,
        "throttle_s_per_cell": throttle,
        "static_lower_bound_s": static_lower_bound,
        "dynamic_s": dynamic_s,
        "speedup": speedup,
        "straggler_cells": slow_cells,
        "requeued_batches": summary["distrib"]["requeued_batches"],
        "bitwise_identical": bitwise,
    }
    print_table("dynamic leasing vs static sharding (1 straggler of 2 workers)",
                [record],
                ["cells", "throttle_s_per_cell", "static_lower_bound_s",
                 "dynamic_s", "speedup", "straggler_cells",
                 "bitwise_identical"])
    assert speedup >= SPEEDUP_FLOOR, (
        f"dynamic leasing speedup {speedup:.2f}x over the static sleep-only "
        f"bound is below the {SPEEDUP_FLOOR}x floor")
    return record


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--output", default=None, metavar="FILE")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as root:
        record = bench_straggler(Path(root))

    if args.output:
        atomic_write_json(args.output, {"straggler": record})
        print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
