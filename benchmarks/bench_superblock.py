"""Perf smoke bench: trace-compiled superblocks + the persistent disk cache.

Two sections, both self-checking:

* **simulation** — the Figure 5 BEEBS grid (every benchmark x O2/Os) on
  shared precompiled programs: the superblocked simulation wall-clock after
  its warm-up run.  Every row, the warm-up run included, must be *bitwise*
  identical to the interpreted oracle (``decode_once=False``): cycles,
  energy, profile, everything.
* **disk_cache** — a cold :class:`ProgramCache` with a ``cache_dir``
  compiles each (benchmark, level) exactly once and persists it; a fresh
  instance (a second worker process, in effect) loads every key from disk
  with **zero** recompiles.  Records the warm-load-vs-compile speedup and
  checks a loaded program simulates bitwise-identically to a compiled one.

Run with::

    PYTHONPATH=src python benchmarks/bench_superblock.py [--quick] \
        [--repeats N] [--output BENCH_superblock.json]
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from typing import List, Optional

from repro.beebs import BENCHMARK_NAMES
from repro.engine import ProgramCache, atomic_write_json
from repro.sim import Simulator

LEVELS = ["O2", "Os"]
#: Keys whose loaded-from-disk programs are re-simulated for bitwise parity
#: (a subset — simulation dominates the bench's runtime).
PARITY_SAMPLE = 3


def result_fields(result):
    """Every observable of one simulation, for bitwise comparison."""
    return (
        result.return_value,
        result.cycles,
        result.instructions,
        result.energy_j,
        result.time_s,
        dict(result.cycles_by_section),
        dict(result.profile.counts),
        dict(result.profile.cycles),
    )


def best_of(repeats: int, run) -> float:
    return min(min(run() for _ in range(repeats)), float("inf"))


def bench_simulation(benchmarks: List[str], repeats: int) -> dict:
    cache = ProgramCache()
    rows = {}
    superblock_total = 0.0
    for name in benchmarks:
        for level in LEVELS:
            program = cache.get_benchmark(name, level)
            expected = result_fields(
                Simulator(program, decode_once=False).run())

            def time_superblocked() -> float:
                t0 = time.perf_counter()
                nonlocal superblocked
                superblocked = Simulator(program).run()
                return time.perf_counter() - t0

            superblocked = None
            time_superblocked()  # warm-up: compiles the superblocks
            warm_up = result_fields(superblocked)
            superblock_seconds = best_of(repeats, time_superblocked)
            bitwise = (warm_up == expected
                       and result_fields(superblocked) == expected)

            superblock_total += superblock_seconds
            rows[f"{name}/{level}"] = {
                "superblock_seconds": superblock_seconds,
                "bitwise_identical": bitwise,
            }
            flag = "ok " if bitwise else "DIFF"
            print(f"  {flag} {name}/{level}: superblocked "
                  f"{superblock_seconds * 1e3:7.2f} ms")

    return {"rows": rows, "superblock_seconds_total": superblock_total}


def bench_disk_cache(benchmarks: List[str]) -> dict:
    unique_keys = len(benchmarks) * len(LEVELS)
    with tempfile.TemporaryDirectory(prefix="bench-progcache-") as cache_dir:
        cold = ProgramCache(cache_dir=cache_dir)
        t0 = time.perf_counter()
        for name in benchmarks:
            for level in LEVELS:
                cold.get_benchmark(name, level)
        compile_seconds = time.perf_counter() - t0
        assert cold.stats.compiles == unique_keys, cold.stats.as_dict()
        assert cold.stats.disk_hits == 0, cold.stats.as_dict()

        # A fresh instance is a second worker process on the same machine:
        # every key must come off disk, none may recompile.
        warm = ProgramCache(cache_dir=cache_dir)
        t0 = time.perf_counter()
        for name in benchmarks:
            for level in LEVELS:
                warm.get_benchmark(name, level)
        warm_seconds = time.perf_counter() - t0
        assert warm.stats.compiles == 0, warm.stats.as_dict()
        assert warm.stats.disk_hits == unique_keys, warm.stats.as_dict()

        parity = True
        for name in benchmarks[:PARITY_SAMPLE]:
            compiled = Simulator(cold.get_benchmark(name, "O2")).run()
            loaded = Simulator(warm.get_benchmark(name, "O2")).run()
            parity = parity and (result_fields(compiled)
                                 == result_fields(loaded))

    return {
        "unique_keys": unique_keys,
        "compile_seconds": compile_seconds,
        "warm_load_seconds": warm_seconds,
        "cold_compiles": unique_keys,
        "warm_compiles": 0,
        "warm_disk_hits": unique_keys,
        "speedup_warm_load_vs_compile": (compile_seconds / warm_seconds
                                         if warm_seconds else float("inf")),
        "bitwise_identical_loaded_programs": parity,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="run a 4-benchmark subset instead of the suite")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per cell (best-of, default 3)")
    parser.add_argument("--output", default="BENCH_superblock.json",
                        help="where to write the JSON record")
    args = parser.parse_args(argv)

    benchmarks = (["2dfir", "crc32", "fdct", "int_matmult"] if args.quick
                  else list(BENCHMARK_NAMES))
    print(f"Figure 5 simulation grid: {len(benchmarks)} benchmarks x "
          f"{LEVELS}, best of {args.repeats}")
    simulation = bench_simulation(benchmarks, args.repeats)
    print(f"superblocked total   : {simulation['superblock_seconds_total']:8.2f} s")

    print("disk cache: cold compile+persist, then warm load by a fresh instance")
    disk = bench_disk_cache(benchmarks)
    print(f"compile+persist      : {disk['compile_seconds']:8.2f} s "
          f"({disk['unique_keys']} keys)")
    print(f"warm load            : {disk['warm_load_seconds']:8.2f} s, "
          f"{disk['warm_disk_hits']} disk hits, 0 compiles")
    print(f"warm-vs-compile      : {disk['speedup_warm_load_vs_compile']:8.2f} x")

    record = {
        "grid": {"benchmarks": benchmarks, "levels": LEVELS},
        "simulation": simulation,
        "disk_cache": disk,
    }
    atomic_write_json(args.output, record)
    print(f"wrote {args.output}")

    broken = [key for key, row in simulation["rows"].items()
              if not row["bitwise_identical"]]
    if broken:
        print(f"ERROR: superblocked results differ from the interpreter: "
              f"{broken}")
        return 1
    if not disk["bitwise_identical_loaded_programs"]:
        print("ERROR: disk-loaded programs simulate differently")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
