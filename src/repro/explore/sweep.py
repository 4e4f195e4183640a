"""Declarative placement design-space sweeps over the experiment engine.

A :class:`SweepSpec` is a cross product of the placement knobs the paper
varies in Section 6: ``X_limit`` (allowed slowdown), ``R_spare`` (RAM budget,
``None`` = derive statically), the flash/RAM energy ratio (``None`` = the
calibrated Figure 1 tables), the solver, the block-frequency mode and the
timing model (``"flat"`` default, or the pipelined/icache variants of
:mod:`repro.sim.pipeline`), crossed with BEEBS kernels and optimization
levels.  :func:`run_sweep` expands the
spec into engine cells in a deterministic order and fans them out through
:meth:`~repro.engine.ExperimentEngine.run_cells`, so a parallel sweep is
bitwise identical to a sequential one and every (benchmark, level) compiles
exactly once per process.

:func:`execute_sweep` runs a sweep into a keyed
:class:`~repro.engine.ResultStore` (sharded, resumed, checkpointed, or on a
local fleet).  Every store it or the `repro.distrib` service writes goes
through one :class:`SweepLedger`, the single owner of the write policy.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.beebs import BENCHMARK_NAMES
from repro.codegen import OptLevel
from repro.engine import ExperimentEngine, ExperimentSpec, default_engine
from repro.engine.results import PER_RUN_META_KEYS, BenchmarkRun, ResultStore
from repro.placement.optimizer import SOLVERS
from repro.placement.parameters import FREQUENCY_MODES
from repro.sim.energy import EnergyModel, PowerTable
from repro.sim.pipeline import TimingSpec
from repro.telemetry import get_telemetry


def scaled_energy_model(flash_ram_ratio: float,
                        base: Optional[EnergyModel] = None) -> EnergyModel:
    """An energy model whose ``e_flash / e_ram`` equals *flash_ram_ratio*.

    The per-class flash powers (and the flash-data load exception, which is
    flash-dominated) are scaled by a single factor; RAM powers are left at
    the calibrated Figure 1 values, so the sweep varies exactly one physical
    axis — how much more expensive flash accesses are than RAM accesses.
    """
    if flash_ram_ratio <= 0:
        raise ValueError("flash/RAM energy ratio must be positive")
    base = base if base is not None else EnergyModel()
    factor = flash_ram_ratio / (base.e_flash / base.e_ram)
    table = PowerTable(
        flash={cls: power * factor for cls, power in base.table.flash.items()},
        ram=dict(base.table.ram),
        ram_fetch_flash_data_load=base.table.ram_fetch_flash_data_load * factor,
    )
    return EnergyModel(table=table, cycle_time_s=base.cycle_time_s)


#: The knobs that identify one sweep cell.  ``cell_key`` hashes exactly
#: these, so two cells are the same experiment iff their keys are equal —
#: independent of the enumeration order of the spec that produced them.
#: ``timing_model`` enters the hash payload only when it differs from
#: ``"flat"``, so every pre-existing flat cell keeps its historical key
#: (and stored sweeps remain byte-identical).
CELL_KEY_FIELDS: Tuple[str, ...] = (
    "benchmark", "opt_level", "optimize", "x_limit", "r_spare",
    "flash_ram_ratio", "solver", "frequency_mode", "timing_model",
)


@dataclass(frozen=True)
class SweepCell:
    """One point of the design space: an engine spec plus its energy axis."""

    spec: ExperimentSpec
    flash_ram_ratio: Optional[float] = None

    def energy_model(self, base: Optional[EnergyModel] = None) -> Optional[EnergyModel]:
        """The cell's energy model, or ``None`` for the engine default."""
        if self.flash_ram_ratio is None:
            return None
        return scaled_energy_model(self.flash_ram_ratio, base)

    @property
    def key(self) -> str:
        """Stable content-addressed identity of this cell (see :func:`cell_key`)."""
        return cell_key(self)


def cell_key(cell: SweepCell) -> str:
    """A stable, content-addressed key for one sweep cell.

    The key is the SHA-256 (truncated to 64 bits of hex) of a canonical JSON
    encoding of :data:`CELL_KEY_FIELDS`.  Floats serialize via ``repr`` —
    exact and platform-independent — so the same knobs hash identically on
    any machine, and the key never depends on where in a sweep's enumeration
    the cell appeared.  Keys address records in keyed
    :class:`~repro.engine.ResultStore` files and assign cells to shards.
    """
    spec = cell.spec
    payload = {
        "benchmark": spec.benchmark,
        "opt_level": spec.opt_level,
        "optimize": spec.optimize,
        "x_limit": spec.x_limit,
        "r_spare": spec.r_spare,
        "flash_ram_ratio": cell.flash_ram_ratio,
        "solver": spec.solver,
        "frequency_mode": spec.frequency_mode,
    }
    timing_model = getattr(spec, "timing_model", "flat")
    if timing_model != "flat":
        payload["timing_model"] = timing_model
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Sharding
# --------------------------------------------------------------------------- #
def shard_index(key: str, shard_count: int) -> int:
    """The shard a cell key belongs to: its integer value mod *shard_count*."""
    return int(key, 16) % shard_count


def shard_cells(cells: Sequence[SweepCell], index: int,
                count: int) -> List[SweepCell]:
    """The subset of *cells* owned by shard *index* of *count*.

    Partitioning is by key hash, so any shard assignment covers each cell in
    exactly one shard regardless of how the sweep was enumerated.
    """
    if count < 1:
        raise ValueError("shard count must be >= 1")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} outside 0..{count - 1}")
    return [cell for cell in cells if shard_index(cell.key, count) == index]


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``i/N`` shard assignment (e.g. ``0/3``) into ``(i, N)``."""
    try:
        index_text, count_text = text.split("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(f"shard must look like i/N (e.g. 0/3), got {text!r}")
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"shard {text!r}: index must be in 0..N-1, N >= 1")
    return index, count


@dataclass(frozen=True)
class SweepSpec:
    """Cross product of placement knobs (Section 6's exploration axes).

    ``timing_models`` is the newest axis: each value is a timing-model
    string (``"flat"``, ``"pipelined"``, ``"pipelined+icache[:LxB]"``),
    validated and canonicalized through
    :meth:`~repro.sim.pipeline.TimingSpec.parse` at construction time.  The
    default ``("flat",)`` keeps specs, cell keys, store meta and stored
    bytes identical to sweeps that predate the axis.
    """

    benchmarks: Tuple[str, ...] = tuple(BENCHMARK_NAMES)
    opt_levels: Tuple[str, ...] = ("O2",)
    x_limits: Tuple[float, ...] = (1.1, 1.5, 2.0)
    r_spares: Tuple[Optional[int], ...] = (None,)
    flash_ram_ratios: Tuple[Optional[float], ...] = (None,)
    solvers: Tuple[str, ...] = ("ilp",)
    frequency_modes: Tuple[str, ...] = ("static",)
    timing_models: Tuple[str, ...] = ("flat",)

    def __post_init__(self):
        # Accept any sequence; store tuples so the spec stays hashable.
        for name in self.AXES:
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
            if not getattr(self, name):
                raise ValueError(f"sweep axis {name!r} must not be empty")
        # Unknown names and out-of-range numbers fail here, where the sweep
        # is submitted, not in a worker that leases the cell.  Values are
        # checked, never rewritten, so a valid spec keeps its cell keys.
        for axis, known in (("benchmarks", BENCHMARK_NAMES),
                            ("solvers", SOLVERS),
                            ("frequency_modes", FREQUENCY_MODES)):
            unknown = [value for value in getattr(self, axis)
                       if value not in known]
            if unknown:
                raise ValueError(f"unknown {axis} {unknown}; known: "
                                 f"{', '.join(known)}")
        for level in self.opt_levels:
            OptLevel.parse(level)
        # The bounds build_placement_ilp and scaled_energy_model enforce,
        # written so that NaN fails them too.
        for axis, valid, bound in (
                ("x_limits", lambda x: x >= 1.0, ">= 1.0"),
                ("r_spares", lambda r: r is None or r >= 0, "None or >= 0"),
                ("flash_ram_ratios", lambda q: q is None or q > 0,
                 "None or > 0")):
            invalid = [value for value in getattr(self, axis)
                       if not valid(value)]
            if invalid:
                raise ValueError(f"sweep axis {axis!r} values must be "
                                 f"{bound}, got {invalid}")
        # Validate + canonicalize timing models up front (fail fast, and
        # make "pipelined+icache" and its explicit default geometry the
        # same cell identity).
        object.__setattr__(self, "timing_models", tuple(
            TimingSpec.parse(model).name for model in self.timing_models))
        # A repeated value would enumerate one experiment twice; the
        # executors' cell-key collision checks are for real hash clashes.
        for axis in self.AXES:
            repeated = [value for value, count
                        in Counter(getattr(self, axis)).items() if count > 1]
            if repeated:
                raise ValueError(f"sweep axis {axis!r} repeats the value "
                                 f"{repeated[0]!r}")

    @property
    def size(self) -> int:
        return (len(self.benchmarks) * len(self.opt_levels) * len(self.x_limits)
                * len(self.r_spares) * len(self.flash_ram_ratios)
                * len(self.solvers) * len(self.frequency_modes)
                * len(self.timing_models))

    #: The axes serialized by :meth:`meta` / consumed by :meth:`from_meta`.
    AXES: ClassVar[Tuple[str, ...]] = (
        "benchmarks", "opt_levels", "x_limits", "r_spares",
        "flash_ram_ratios", "solvers", "frequency_modes", "timing_models",
    )

    def meta(self) -> Dict:
        """JSON-safe record of the axes — shared by every shard's store, so
        :meth:`~repro.engine.ResultStore.merge` can check that partial stores
        came from the same sweep.

        The ``timing_models`` axis is omitted while it has its default
        ``["flat"]`` value, so flat sweeps write byte-identical stores to
        the ones produced before the axis existed (and merge/resume against
        them).
        """
        meta = {}
        for name in self.AXES:
            value = list(getattr(self, name))
            if name == "timing_models" and value == ["flat"]:
                continue
            meta[name] = value
        return meta

    @classmethod
    def from_meta(cls, meta: Dict) -> "SweepSpec":
        """Rebuild a spec from :meth:`meta` output (a JSON round trip).

        Floats survive JSON exactly (``repr`` serialization), so the rebuilt
        spec enumerates cells with the very same :func:`cell_key`\\ s — this
        is how a distributed worker reconstitutes the sweep from the axes
        meta every ``lease`` carries.  Per-run keys (``cells``,
        ``shard``) are ignored; missing axes are an error — except
        ``timing_models``, whose absence means the pre-axis default
        ``("flat",)``.
        """
        try:
            values = {}
            for name in cls.AXES:
                if name == "timing_models":
                    values[name] = tuple(meta.get(name, ("flat",)))
                else:
                    values[name] = tuple(meta[name])
            return cls(**values)
        except KeyError as error:
            raise ValueError(f"sweep meta is missing axis {error}") from error

    def cells(self) -> List[SweepCell]:
        """The sweep's cells in deterministic nesting order.

        Benchmark and level vary slowest so that contiguous chunks of the
        cell list share a compiled program — the same adjacency the engine's
        chunked process fan-out exploits.
        """
        cells: List[SweepCell] = []
        for benchmark in self.benchmarks:
            for level in self.opt_levels:
                for mode in self.frequency_modes:
                    for timing_model in self.timing_models:
                        for solver in self.solvers:
                            for ratio in self.flash_ram_ratios:
                                for r_spare in self.r_spares:
                                    for x_limit in self.x_limits:
                                        cells.append(SweepCell(
                                            spec=ExperimentSpec(
                                                benchmark=benchmark,
                                                opt_level=level,
                                                x_limit=x_limit,
                                                r_spare=r_spare,
                                                frequency_mode=mode,
                                                solver=solver,
                                                timing_model=timing_model,
                                            ),
                                            flash_ram_ratio=ratio,
                                        ))
        return cells


def cell_record(cell: SweepCell, run: BenchmarkRun) -> Dict:
    """Flat JSON-safe record of one sweep cell (knobs + measurements).

    The ``timing_model`` field appears only on non-flat cells, keeping flat
    records (and therefore whole flat stores) byte-identical to pre-axis
    runs; report code normalizes the absence back to ``"flat"``.
    """
    estimate = run.solution.estimate if run.solution else None
    record = {
        "cell_key": cell.key,
        "benchmark": cell.spec.benchmark,
        "opt_level": cell.spec.opt_level,
        "frequency_mode": cell.spec.frequency_mode,
        "solver": cell.spec.solver,
        "x_limit": cell.spec.x_limit,
        "r_spare_requested": cell.spec.r_spare,
        "flash_ram_ratio": cell.flash_ram_ratio,
        "baseline_energy_j": run.baseline.energy_j,
        "baseline_cycles": run.baseline.cycles,
        "energy_j": (run.optimized.energy_j if run.optimized is not None
                     else run.baseline.energy_j),
        "cycles": (run.optimized.cycles if run.optimized is not None
                   else run.baseline.cycles),
        "energy_change": run.energy_change,
        "time_change": run.time_change,
        "time_ratio": 1.0 + run.time_change,
        "power_change": run.power_change,
        "ram_bytes": estimate.ram_bytes if estimate else 0,
        "blocks_moved": len(run.solution.ram_blocks) if run.solution else 0,
        "model_energy_j": estimate.energy_j if estimate else None,
        "model_time_ratio": estimate.time_ratio if estimate else None,
        "solver_status": run.solution.solver_status if run.solution else "",
        "r_spare_derived": run.solution.r_spare if run.solution else None,
        "ram_blocks": sorted(run.solution.ram_blocks) if run.solution else [],
    }
    timing_model = getattr(cell.spec, "timing_model", "flat")
    if timing_model != "flat":
        record["timing_model"] = timing_model
    if run.fb_report is not None:
        # Static-vs-profiled F_b fidelity of this cell's frequency mode
        # (fb_mean_abs_log_ratio etc.); flows through shards/merges/distrib
        # like every other field and feeds the report's fidelity section.
        record.update(run.fb_report)
    return record


@dataclass
class SweepResult:
    """All cells of one executed sweep, in cell order."""

    sweep: SweepSpec
    cells: List[SweepCell]
    runs: List[BenchmarkRun]
    records: List[Dict] = field(default_factory=list)

    def __post_init__(self):
        if not self.records:
            self.records = [cell_record(cell, run)
                            for cell, run in zip(self.cells, self.runs)]

    def meta(self) -> Dict:
        meta = self.sweep.meta()
        meta["cells"] = len(self.records)
        return meta


def run_sweep(sweep: SweepSpec,
              engine: Optional[ExperimentEngine] = None,
              max_workers: Optional[int] = None) -> SweepResult:
    """Execute every cell of *sweep* through the engine, in cell order."""
    engine = engine if engine is not None else default_engine()
    cells = sweep.cells()
    runs = run_sweep_cells(cells, engine, max_workers)
    return SweepResult(sweep=sweep, cells=cells, runs=runs)


def run_sweep_cells(cells: Sequence[SweepCell], engine: ExperimentEngine,
                    max_workers: Optional[int] = None,
                    progress: Optional[Callable[[int, int], None]] = None
                    ) -> List[BenchmarkRun]:
    """Run sweep cells through the engine's fan-out, in cell order.

    This is the execution primitive shared by :func:`execute_sweep` and the
    distributed workers (`repro.distrib.worker`): it resolves each cell's
    energy model against the engine default and hands the pairs to
    :meth:`~repro.engine.ExperimentEngine.run_cells` — so every execution
    path computes the exact same floats.
    """
    base_model = engine.energy_model
    payload: List[Tuple[ExperimentSpec, Optional[EnergyModel]]] = [
        (cell.spec, cell.energy_model(base_model)) for cell in cells
    ]
    return engine.run_cells(payload, max_workers=max_workers,
                            progress=progress)


class SweepRecheckError(ValueError):
    """A cell's record does not reproduce bitwise: a recomputed or repeated
    record differs from the one the ledger already holds."""


class SweepLedger:
    """The one writer of a sweep's keyed store.

    Every executor drives one ledger per sweep: :func:`execute_sweep`'s
    in-process loop, and each :class:`~repro.distrib.service.SweepJob` of
    the sweep service, which calls it under the service's lock (the ledger
    takes none).  The write policy below therefore exists once, which is
    what makes a sweep's store byte-identical whichever executor writes it.

    * **Admission** (the constructor): the cells, optionally one ``(index,
      count)`` shard of them, a cell-key collision check and the store meta
      (the axes plus the shard).  ``resume=True`` loads the stored records
      a resume may skip, after checking the store's and any leftover
      journal's axes against the sweep *before* folding the journal in, so
      a foreign store is refused untouched.  A fresh run with a store
      discards a stale journal that would otherwise leak into its
      compaction.  Refusals raise :class:`ValueError`.
    * **Record acceptance** (:meth:`accept`): a record must belong to the
      sweep, and a record for a cell already held must match it bitwise.
    * **Checkpoint cadence** (:meth:`due_batch`, :meth:`journal`): accepted
      records collect in a journal tail, and a batch of it is due every
      ``checkpoint_every`` records (``0``, or no store, never journals).
      The journal is crash recovery only: admission folds in a crashed
      run's journal, and a batch journaled after the final write is
      dropped, because the store already holds it.
    * **The final write** (:meth:`finish`): from the records held in
      memory, a keyed append on a resume and a sorted save otherwise (also
      a cancelled sweep's partial store); then the journal goes.
    * **The summary** (:meth:`summary`): ``execute_sweep``'s result shape.
    """

    def __init__(self, sweep: SweepSpec,
                 store: Optional[ResultStore] = None,
                 name: str = "sweep",
                 shard: Optional[Tuple[int, int]] = None,
                 resume: bool = False,
                 checkpoint_every: int = 0):
        cells = sweep.cells()
        if shard is not None:
            cells = shard_cells(cells, shard[0], shard[1])
        self.by_key: Dict[str, SweepCell] = {cell.key: cell for cell in cells}
        if len(self.by_key) != len(cells):
            raise ValueError("cell_key collision within one sweep "
                             "(two distinct cells hashed identically)")
        if resume and store is None:
            raise ValueError("resume requires a result store")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables "
                             "checkpoints)")
        self.cells = cells
        self.store = store
        self.name = name
        self.resume = resume
        self.meta = sweep.meta()
        if shard is not None:
            self.meta["shard"] = [shard[0], shard[1]]
        self.checkpoint_every = checkpoint_every if store is not None else 0
        self.completed: Dict[str, Dict] = {}
        self.tail: List[Dict] = []
        self.finished = False
        self.path: Optional[str] = None
        self.stored: Dict[str, Dict] = {}
        if resume:
            self.stored = self._resumable(sweep.meta())
        elif store is not None and store.journal_path(name).exists():
            # A fresh run overwrites the store; a stale journal from some
            # earlier crashed run must not leak into it at compaction time.
            store.journal_path(name).unlink()

    def _resumable(self, axes: Dict) -> Dict[str, Dict]:
        """The stored records of this sweep a resume may skip."""
        store, name = self.store, self.name

        def check_axes(meta: Dict, path) -> None:
            stripped = {key: value for key, value in meta.items()
                        if key not in PER_RUN_META_KEYS}
            if stripped != axes:
                raise ValueError(
                    f"{path}: stored sweep axes differ from the requested "
                    f"sweep; resuming would mix records from different "
                    f"sweeps (run without --resume, or into a fresh store)")

        if store.path_for(name).exists():
            check_axes(store.load_meta(name), store.path_for(name))
        if store.journal_path(name).exists():
            header, _records = store.load_journal(name)
            if header is not None:
                check_axes(header.get("meta") or {}, store.journal_path(name))
            # Fold leftover checkpoints in (or clear the torn wreckage of an
            # interrupted first append) so those cells are not re-executed.
            store.compact_journal(name, merge_store=True)
        if not store.path_for(name).exists():
            return {}
        return {key: record
                for key, record in store.load_keyed(name).items()
                if key in self.by_key}

    @property
    def done(self) -> int:
        """Cells held: stored before this run plus completed in it."""
        return len(self.stored) + len(self.completed)

    def holds(self, key: str) -> bool:
        return key in self.completed or key in self.stored

    def missing(self) -> List[SweepCell]:
        """The cells still to compute, in sweep order."""
        return [cell for cell in self.cells if not self.holds(cell.key)]

    def accept(self, record: Dict) -> bool:
        """Take one computed record; ``False`` if it repeats a held one.

        Raises :class:`ValueError` for a record that is not one of this
        sweep's cells, and :class:`SweepRecheckError` for a record that
        differs from the one already held for its cell.
        """
        key = record.get("cell_key") if isinstance(record, dict) else None
        if not isinstance(key, str) or key not in self.by_key:
            raise ValueError(f"unknown cell {key!r} (not in sweep "
                             f"{self.name!r})")
        if key in self.stored:
            if record != self.stored[key]:
                raise SweepRecheckError(
                    f"stored cell {key} no longer reproduces bitwise; the "
                    f"store is stale (code or model changed) or corrupt — "
                    f"rerun the sweep without --resume")
            return False
        if key in self.completed:
            if record != self.completed[key]:
                raise SweepRecheckError(
                    f"cell {key} completed twice with DIFFERENT records; "
                    f"the sweep is not bitwise-reproducible — refusing to "
                    f"write a store")
            return False
        self.completed[key] = record
        self.tail.append(record)
        return True

    def due_batch(self) -> List[Dict]:
        """Pop the journal tail once a checkpoint of it is due, else ``[]``."""
        if not self.checkpoint_every or len(self.tail) < self.checkpoint_every:
            return []
        batch, self.tail = self.tail, []
        return batch

    def journal(self, batch: List[Dict]) -> None:
        """Append one due batch to the store's journal in O(batch); a batch
        that arrives after :meth:`finish` is already in the store."""
        if self.finished:
            return
        with get_telemetry().span("store.checkpoint", kind="journal",
                                  sweep=self.name, records=len(batch)):
            self.store.append_journal(self.name, batch, meta=self.meta)

    def records(self) -> List[Dict]:
        """Every held record, in key order."""
        combined = dict(self.stored)
        combined.update(self.completed)
        return [combined[key] for key in sorted(combined)]

    def finish(self, complete: bool = True, kind: str = "store") -> None:
        """Write the canonical store (or, ``complete=False``, the partial
        store of a cancelled sweep, when it completed anything).

        The store is written from the records held, whatever reached the
        journal: a resume appends its new records, a fresh run saves all of
        them, sorted.  The journal is removed once the store has committed,
        so a crash in between leaves only bitwise duplicates.  *kind* names
        the ``store.checkpoint`` span of a complete write; a partial
        write's span is ``cancel``.
        """
        if self.store is None or not (complete or self.completed):
            return
        with get_telemetry().span("store.checkpoint",
                                  kind=kind if complete else "cancel",
                                  sweep=self.name, records=self.done):
            if self.resume:
                path = self.store.append_keyed(
                    self.name, list(self.completed.values()), meta=self.meta)
            else:
                path = self.store.save_keyed(self.name, self.records(),
                                             meta=self.meta)
            self.finished = True
            try:
                self.store.journal_path(self.name).unlink()
            except FileNotFoundError:
                pass
        self.path = str(path)

    def summary(self) -> Dict:
        """The held records in key order, the store meta stamped with their
        count, cell/computed/skipped counts and the store path."""
        records = self.records()
        meta = dict(self.meta)
        meta["cells"] = len(records)
        return {"records": records, "meta": meta, "cells": len(self.cells),
                "computed": len(self.completed), "skipped": len(self.stored),
                "path": self.path}


def execute_sweep(sweep: SweepSpec,
                  store: Optional[ResultStore] = None,
                  name: str = "sweep",
                  shard: Optional[Tuple[int, int]] = None,
                  resume: bool = False,
                  recheck: int = 0,
                  engine: Optional[ExperimentEngine] = None,
                  max_workers: Optional[int] = None,
                  workers: Optional[int] = None,
                  progress: bool = False,
                  checkpoint_every: Optional[int] = None,
                  batch_size: Optional[int] = None,
                  lease_timeout: Optional[float] = None,
                  cache_dir: Optional[str] = None) -> Dict:
    """Run *sweep* — optionally one shard of it — with store-backed resume.

    * ``shard=(i, N)`` restricts execution to the cells whose key hashes to
      shard *i* of *N* (each cell lands in exactly one shard);
    * ``resume=True`` skips any cell whose key is already in the store and
      appends only the missing ones, so an interrupted sweep re-simulates
      only what it never finished (a leftover checkpoint journal is folded
      in first);
    * ``recheck=K`` additionally recomputes a deterministic sample of up to
      *K* stored cells and raises :class:`SweepRecheckError` unless they
      reproduce bitwise — a cheap staleness probe for resumed stores;
    * ``workers=N`` executes through the distributed subsystem instead — a
      local sweep service leasing dynamic batches to *N* spawned worker
      processes (`repro.distrib`); the resulting store is byte-identical
      to the in-process run.  ``engine``, ``max_workers`` and ``recheck``
      configure the in-process path and are rejected alongside it;
    * ``progress=True`` prints a live cells/s + ETA line to stderr (stdout
      stays machine-readable);
    * ``checkpoint_every=K`` (with a store) journals completed records every
      *K* cells in O(batch) — an interrupted run can then ``resume`` from
      its last checkpoint instead of from the last full store write.
      ``0`` disables checkpointing on every path; ``None`` (the default)
      means off in-process and the service default when distributed;
    * ``batch_size`` / ``lease_timeout`` tune the distributed lease-size
      ceiling and failure detection; they require ``workers``;
    * ``cache_dir`` enables the persistent on-disk program cache: the
      in-process engine (and, distributed, every spawned worker) loads
      compiled programs from that directory instead of recompiling, so a
      fleet compiles each (benchmark, opt level) once per machine.  It
      cannot be combined with an explicit ``engine`` — configure that
      engine's cache instead.

    Returns a summary dict: the run's records in key order, the store meta,
    cell/computed/skipped/rechecked counts, the engine's program-cache
    counters (``cache``), and the store path (or ``None`` when running
    storeless).
    """
    if workers is not None:
        if recheck:
            raise ValueError("recheck is not supported on the distributed "
                             "path; run it in-process first")
        if engine is not None or max_workers is not None:
            raise ValueError("a distributed run spawns its own sequential "
                             "worker engines; engine and max_workers do "
                             "not apply")
        from repro.distrib import execute_sweep_distributed
        kwargs = {}
        if checkpoint_every is not None:
            kwargs["checkpoint_every"] = checkpoint_every
        if batch_size is not None:
            kwargs["batch_size"] = batch_size
        if lease_timeout is not None:
            kwargs["lease_timeout"] = lease_timeout
        return execute_sweep_distributed(
            sweep, store=store, name=name, workers=workers, shard=shard,
            resume=resume, progress=progress, cache_dir=cache_dir,
            **kwargs)
    if engine is not None and cache_dir is not None:
        raise ValueError("cache_dir configures a fresh engine; give the "
                         "explicit engine a disk cache instead "
                         "(ExperimentEngine(cache_dir=...))")
    if batch_size is not None or lease_timeout is not None:
        raise ValueError("batch_size/lease_timeout configure the "
                         "distributed lease protocol; they require workers=N")

    ledger = SweepLedger(sweep, store, name, shard=shard, resume=resume,
                         checkpoint_every=checkpoint_every or 0)
    if engine is None:
        engine = (ExperimentEngine(cache_dir=cache_dir)
                  if cache_dir is not None else default_engine())

    rechecked = 0
    if recheck and ledger.stored:
        sample = [ledger.by_key[key]
                  for key in sorted(ledger.stored)[:recheck]]
        runs = run_sweep_cells(sample, engine, max_workers)
        for cell, run in zip(sample, runs):
            ledger.accept(cell_record(cell, run))  # must repeat bitwise
        rechecked = len(sample)

    missing = ledger.missing()
    reporter = None
    if progress:
        from repro.distrib.progress import ProgressReporter
        reporter = ProgressReporter(len(missing), label=f"sweep:{name}")

    # One chunk per checkpoint: each due batch lands in the journal before
    # the next chunk starts, so an interruption loses at most one chunk.
    step = ledger.checkpoint_every or len(missing) or 1
    for start in range(0, len(missing), step):
        chunk = missing[start:start + step]

        def chunk_progress(done, _total, base=start):
            if reporter is not None:
                reporter.update(base + done)

        runs = run_sweep_cells(chunk, engine, max_workers,
                               progress=chunk_progress)
        for cell, run in zip(chunk, runs):
            ledger.accept(cell_record(cell, run))
        batch = ledger.due_batch()
        if batch:
            ledger.journal(batch)
    # Program-cache counters for the whole run: this process's engine plus
    # the per-process caches of its pool workers, whose snapshots come back
    # through the pool and are merged by ``merged_cache_stats``.
    cache_stats = engine.merged_cache_stats()
    if reporter is not None:
        reporter.finish(extra=(f"cache {cache_stats['compiles']} compiles, "
                               f"{cache_stats['hits']} hits, "
                               f"{cache_stats['disk_hits']} disk hits"))
    ledger.finish()
    return dict(ledger.summary(), rechecked=rechecked, cache=cache_stats)
