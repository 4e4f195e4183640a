"""Design-space exploration: parameter sweeps, Pareto fronts, profile fixpoints.

The paper's central artifact is a sweep — energy/time trade-offs as
``X_limit``, spare RAM and the flash/RAM energy ratio vary over the BEEBS
kernels (Figures 5-6, Section 6).  This subsystem runs those sweeps through
the :class:`~repro.engine.ExperimentEngine`:

* :class:`SweepSpec` / :func:`run_sweep` — a declarative cross product of
  placement knobs (including the ``timing_models`` axis selecting flat vs
  pipelined/icache cycle accounting, `repro.sim.pipeline`), fanned out
  deterministically over the engine's process pool with one compile per
  (benchmark, level) (`repro.explore.sweep`);
* :func:`pareto_front` / :func:`pareto_records` — non-dominated filtering of
  the energy / time-ratio / RAM-bytes trade-off space
  (`repro.explore.pareto`);
* :func:`profile_guided_placement` — the paper's profiled frequency mode run
  to a fixpoint: simulate, feed the block counts back to the solver, repeat
  until the selected RAM set stops changing (`repro.explore.profile_guided`);
* :func:`execute_sweep` / :func:`shard_cells` — resumable, shardable sweep
  execution against a keyed :class:`~repro.engine.ResultStore`: every cell
  has a content-addressed :func:`cell_key`, shards partition the cell set by
  key hash, and resume skips cells already stored (`repro.explore.sweep`);
* :func:`sweep_report` / :func:`report_from_store` — the Figure 5/6
  artifacts (Pareto fronts, energy/time-vs-X_limit envelopes, frontier
  sizes) rebuilt purely from stored records, with gnuplot driver scripts
  emitted next to the CSV tables (`repro.explore.report`).

``execute_sweep(..., workers=N)`` hands execution to the `repro.distrib`
service/worker subsystem — dynamic batch leasing across processes or
machines, byte-identical to the in-process run.
"""

from repro.explore.pareto import (
    dominates,
    mark_pareto,
    pareto_front,
    pareto_records,
)
from repro.explore.profile_guided import (
    ProfileGuidedIteration,
    ProfileGuidedResult,
    profile_guided_placement,
)
from repro.explore.report import (
    report_from_store,
    report_scripts,
    report_tables,
    sweep_report,
    write_report,
)
from repro.explore.sweep import (
    SweepCell,
    SweepRecheckError,
    SweepResult,
    SweepSpec,
    cell_key,
    cell_record,
    execute_sweep,
    parse_shard,
    run_sweep,
    run_sweep_cells,
    scaled_energy_model,
    shard_cells,
    shard_index,
)

__all__ = [
    "SweepCell",
    "SweepRecheckError",
    "SweepResult",
    "SweepSpec",
    "cell_key",
    "cell_record",
    "execute_sweep",
    "parse_shard",
    "run_sweep",
    "run_sweep_cells",
    "scaled_energy_model",
    "shard_cells",
    "shard_index",
    "dominates",
    "mark_pareto",
    "pareto_front",
    "pareto_records",
    "report_from_store",
    "report_scripts",
    "report_tables",
    "sweep_report",
    "write_report",
    "ProfileGuidedIteration",
    "ProfileGuidedResult",
    "profile_guided_placement",
]
