"""The benchmark's three workloads and the sweep grid each draws from a seed.

Seed 0 is the canonical grid (the ROADMAP baseline for ``flat_grid``).  Any
other seed draws one ``X_limit`` per band below, so a change cannot overfit
to one constraint tightness.  Values inside a band cost about the same to
solve (the ILP explores a similar number of branch-and-bound nodes on this
grid), which keeps throughput comparable from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.explore.sweep import SweepSpec

KERNELS: Tuple[str, ...] = ("2dfir", "crc32", "cubic", "fdct", "int_matmult",
                            "sha")
LEVELS: Tuple[str, ...] = ("O2", "Os")

#: X_limit bands, measured on the flat grid: tight (390-436 B&B nodes),
#: medium (602-604) and loose (24: the root LP is integral).  1.1 (474
#: nodes) is left out of the medium band: it shifts enough cells into a
#: cheaper cluster to move the median cell time by ~15%.
TIGHT = (1.03, 1.04, 1.05)
MEDIUM = (1.08, 1.09)
LOOSE = (1.25, 1.3, 1.35)


@dataclass(frozen=True)
class Workload:
    name: str
    grid: str            # which expectation file checks its cells
    in_process: bool


#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "flat_grid": Workload("flat_grid", "flat_grid", True),
    "pipelined_grid": Workload("pipelined_grid", "pipelined_grid", True),
    "fleet_sweep": Workload("fleet_sweep", "flat_grid", False),
}


def _draw(seed: int, canonical: Tuple[float, ...], bands) -> Tuple[float, ...]:
    if seed == 0:
        return canonical
    rng = random.Random(seed)
    return tuple(rng.choice(band) for band in bands)


def sweep_for(workload: str, seed: int) -> SweepSpec:
    """The sweep grid *workload* runs under *seed*."""
    if workload == "pipelined_grid":
        return SweepSpec(benchmarks=KERNELS, opt_levels=LEVELS,
                         x_limits=_draw(seed, (1.05, 1.3), (TIGHT, LOOSE)),
                         timing_models=("pipelined", "pipelined+icache"))
    if workload in ("flat_grid", "fleet_sweep"):
        return SweepSpec(benchmarks=KERNELS, opt_levels=LEVELS,
                         x_limits=_draw(seed, (1.05, 1.1, 1.3),
                                        (TIGHT, MEDIUM, LOOSE)),
                         flash_ram_ratios=(1.4, 1.7))
    raise ValueError(f"unknown workload {workload!r}")
