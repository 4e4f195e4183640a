"""The experiment engine: cached, parallel compile→optimize→simulate runs.

Every figure, benchmark and example funnels through
:class:`ExperimentEngine`.  For one experiment cell the engine

1. compiles the benchmark **once** through the shared
   :class:`~repro.engine.cache.ProgramCache` (the seed pipeline compiled the
   same source twice per optimized run),
2. simulates the pristine shared program for the baseline,
3. copies the pristine program for the placement optimizer, which selects
   a RAM set and rewrites blocks in place, and simulates the placed copy.

Work is memoised per engine on what was *compiled*, not on how it was asked
for: programs are named by :meth:`~repro.engine.cache.ProgramCache.digest`,
the SHA-256 of their pickled image, so optimization levels that emit the
same machine code (O2 and Os of fdct, say) are solved and simulated once.

* **Simulations.**  A run's cycles, profile, return value and integer
  energy-event counts depend on the program, its RAM set and the timing
  model, never on the energy model, so the memo is keyed on (program
  digest, canonical timing model, sorted RAM set — ``None`` for the
  baseline) and each cell prices the stored counts under its own energy
  model (:meth:`~repro.sim.SimulationResult.priced`, the same reduction a
  fresh simulation ends with, so a priced result equals a fresh one
  bitwise).
* **Placements.**  A cell's solution, ``F_b`` fidelity report and placed
  program depend on the program digest, every :class:`PlacementConfig`
  field (timing model canonical) and the energy model's full content; a
  profile-mode cell's profile is itself the memoised baseline's.  A hit
  returns copies of the stored solution and report and prices the stored
  optimized run, skipping the copy, parameter extraction, solve, transform
  and simulation; the return-value check still runs.

Every memoised value is a deterministic function of its key, so a cell's
bytes do not depend on which cells ran before it in the same engine.  Each
memo holds at most :data:`SIMULATION_MEMO_CAP` entries (oldest evicted
first), so a long-lived worker stays bounded.

Grids (benchmark × opt level × frequency mode) fan out over a
``concurrent.futures.ProcessPoolExecutor`` with deterministic result
ordering: results come back in spec order regardless of which worker finished
first, and every worker computes the exact same floats the sequential path
does, so parallel and sequential grids are bitwise identical.

Design-space sweeps (``repro.explore``) additionally vary the *energy model*
per cell — the paper's flash/RAM energy-ratio axis.
:meth:`ExperimentEngine.run_cells` accepts ``(spec, energy_model)`` pairs;
one engine serves every model, and cells that differ only in the energy
model share their simulations through the memo.
"""

from __future__ import annotations

import copy
import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.cache import ProgramCache, default_cache
from repro.engine.results import BenchmarkRun
from repro.machine.program import MachineProgram
from repro.placement import (FlashRAMOptimizer, PlacementConfig,
                             PlacementSolution)
from repro.sim import EnergyModel, SimulationResult, Simulator, TimingSpec
from repro.telemetry import get_telemetry

#: Most simulations, and most placements, one engine keeps for reuse.  A
#: 72-cell Figure 5/6 grid needs 24 and 48; past the cap the oldest entry
#: is evicted.
SIMULATION_MEMO_CAP = 1024

#: A memoised placement: the solution, its ``F_b`` fidelity report and the
#: optimized run of the placed program.
Placement = Tuple[PlacementSolution, Dict[str, float], SimulationResult]


def frequency_fidelity(parameters, profile) -> Dict[str, float]:
    """How well the extracted ``F_b`` estimates match profiled block counts.

    The paper evaluates its static loop-depth estimate against exact
    profiled frequencies (Figure 5); this quantifies the gap per run, from
    data both placements already have in hand (the cost-model parameters
    and the baseline profile — no extra simulation).  Returns flat
    JSON-safe fields: the mean absolute natural-log ratio over blocks both
    sides consider live, plus the counts of blocks only one side does.
    Iteration is in sorted block-key order so the float accumulation — and
    therefore the stored record — is bitwise deterministic.
    """
    ratios_total = 0.0
    compared = 0
    predicted_dead = 0  # estimated hot but never executed
    missed_hot = 0      # executed but estimated dead
    for key in sorted(parameters):
        estimated = parameters[key].frequency
        profiled = float(profile.count(key))
        if estimated > 0.0 and profiled > 0.0:
            ratios_total += abs(math.log(estimated / profiled))
            compared += 1
        elif estimated > 0.0:
            predicted_dead += 1
        elif profiled > 0.0:
            missed_hot += 1
    mean = ratios_total / compared if compared else 0.0
    return {
        "fb_blocks_compared": compared,
        "fb_mean_abs_log_ratio": mean,
        "fb_predicted_dead": predicted_dead,
        "fb_missed_hot": missed_hot,
    }


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an evaluation grid.

    ``timing_model`` selects the cycle-accounting scheme for both the
    placement cost model and the validating simulations (``"flat"`` default,
    or the pipelined variants of :mod:`repro.sim.pipeline`).
    """

    benchmark: str
    opt_level: str = "O2"
    optimize: bool = True
    x_limit: float = 1.5
    r_spare: Optional[int] = None
    frequency_mode: str = "static"
    solver: str = "ilp"
    timing_model: str = "flat"


class ExperimentEngine:
    """Runs compile/optimize/simulate experiments with caching and fan-out."""

    def __init__(self, energy_model: Optional[EnergyModel] = None,
                 cache: Optional[ProgramCache] = None,
                 max_workers: Optional[int] = None,
                 cache_dir: Optional[str] = None):
        self.energy_model = energy_model or EnergyModel()
        if cache is not None:
            self.cache = cache
        elif cache_dir is not None:
            self.cache = ProgramCache(cache_dir=cache_dir)
        else:
            self.cache = default_cache()
        #: Propagated to pool workers so their per-process caches share the
        #: same on-disk tier (an explicit ``cache`` object wins over
        #: ``cache_dir`` locally, but its directory still propagates).
        self.cache_dir = self.cache.cache_dir if cache is not None else cache_dir
        self.max_workers = max_workers
        #: Simulations by (program digest, timing model, RAM set or None
        #: for the baseline), in insertion order for eviction.
        self._simulations: Dict[Tuple, SimulationResult] = {}
        #: Placements by (program digest, placement config, energy model).
        self._placements: Dict[Tuple, Placement] = {}
        #: Latest cache-stats snapshot per pool worker, keyed by
        #: ``(pool_epoch, pid)`` — pids can be reused across pools, and each
        #: worker's snapshot is cumulative within its pool, so "latest per
        #: epoch+pid" sums correctly in :meth:`merged_cache_stats`.
        self.pool_cache_stats: Dict[Tuple[int, int], Dict[str, int]] = {}
        self._pool_epoch = 0

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def compile_benchmark(self, name: str, opt_level: str = "O2") -> MachineProgram:
        """The shared pristine program of one benchmark (compiled once)."""
        return self.cache.get_benchmark(name, opt_level)

    def compile_benchmark_mutable(self, name: str,
                                  opt_level: str = "O2") -> MachineProgram:
        """A private, transformable copy of the benchmark's program."""
        return self.cache.get_benchmark_mutable(name, opt_level)

    # ------------------------------------------------------------------ #
    # Memos
    # ------------------------------------------------------------------ #
    def _memo_key(self, name: str, opt_level: str, timing_model: str,
                  ram_blocks: Optional[Iterable[str]] = None) -> Tuple:
        """What a simulation depends on: the program, its timing model and
        the RAM set the transform applied (``None``: the pristine program).

        The transform's other input, the stack reserve, is the same
        :class:`PlacementConfig` default for every cell of the engine.
        """
        placed = None if ram_blocks is None else tuple(sorted(ram_blocks))
        return (self.cache.benchmark_digest(name, opt_level),
                TimingSpec.parse(timing_model).name, placed)

    def _placement_key(self, name: str, opt_level: str,
                       config: PlacementConfig,
                       energy_model: EnergyModel) -> Tuple:
        """What a placement depends on: the program, every config field
        and every energy-model field (pickled, so equal keys mean equal
        models down to the bit)."""
        timing_model = TimingSpec.parse(config.timing_model).name
        return (self.cache.benchmark_digest(name, opt_level),
                astuple(replace(config, timing_model=timing_model)),
                pickle.dumps(energy_model, protocol=pickle.HIGHEST_PROTOCOL))

    def _recall(self, key: Tuple,
                energy_model: EnergyModel) -> Optional[SimulationResult]:
        """The memoised run for *key* priced under *energy_model*, if any."""
        result = self._simulations.get(key)
        return None if result is None else _priced(result, energy_model)

    @staticmethod
    def _remember(memo: Dict, key: Tuple, value) -> None:
        if len(memo) >= SIMULATION_MEMO_CAP:
            del memo[next(iter(memo))]
        memo[key] = value

    # ------------------------------------------------------------------ #
    # Single experiments
    # ------------------------------------------------------------------ #
    def _baseline(self, name: str, opt_level: str, timing_model: str,
                  energy_model: EnergyModel) -> SimulationResult:
        """Simulate the unmodified program (memoised, priced per call)."""
        hub = get_telemetry()
        # The program's first digest compiles it (unless cached) and hashes
        # its snapshot; later ones are lookups.
        with hub.span("compile", benchmark=name, opt_level=opt_level):
            key = self._memo_key(name, opt_level, timing_model)
        result = self._recall(key, energy_model)
        if result is None:
            program = self.compile_benchmark(name, opt_level)
            with hub.span("simulate", stage="baseline"):
                result = Simulator(program, energy_model=energy_model,
                                   timing_model=timing_model).run()
            self._remember(self._simulations, key, result)
        return result

    def _place(self, spec: ExperimentSpec, config: PlacementConfig,
               baseline: SimulationResult,
               energy_model: EnergyModel) -> Placement:
        """Optimize a private copy of the program and simulate it."""
        hub = get_telemetry()
        name, opt_level = spec.benchmark, spec.opt_level
        with hub.span("compile", benchmark=name, opt_level=opt_level,
                      stage="mutable"):
            optimized_program = self.compile_benchmark_mutable(name, opt_level)
        optimizer = FlashRAMOptimizer(optimized_program,
                                      energy_model=energy_model,
                                      config=config)
        profile = (baseline.profile if spec.frequency_mode == "profile"
                   else None)
        with hub.span("placement.solve", solver=spec.solver):
            solution = optimizer.optimize(profile=profile)
        fb_report = frequency_fidelity(optimizer.parameters, baseline.profile)
        key = self._memo_key(name, opt_level, spec.timing_model,
                             solution.ram_blocks)
        optimized = self._recall(key, energy_model)
        if optimized is None:
            with hub.span("simulate", stage="optimized"):
                optimized = Simulator(optimized_program,
                                      energy_model=energy_model,
                                      timing_model=spec.timing_model).run()
            self._remember(self._simulations, key, optimized)
        return solution, fb_report, optimized

    def _optimized(self, spec: ExperimentSpec,
                   energy_model: EnergyModel) -> BenchmarkRun:
        """Baseline, then the cell's placement and its run (memoised)."""
        name, opt_level = spec.benchmark, spec.opt_level
        baseline = self._baseline(name, opt_level, spec.timing_model,
                                  energy_model)
        config = PlacementConfig(x_limit=spec.x_limit, r_spare=spec.r_spare,
                                 frequency_mode=spec.frequency_mode,
                                 solver=spec.solver,
                                 timing_model=spec.timing_model)
        key = self._placement_key(name, opt_level, config, energy_model)
        stored = self._placements.get(key)
        if stored is None:
            solution, fb_report, optimized = self._place(
                spec, config, baseline, energy_model)
            # The memo keeps its own copies: callers may mutate theirs.
            self._remember(self._placements, key,
                           (copy.deepcopy(solution), dict(fb_report),
                            optimized))
        else:
            hub = get_telemetry()
            if hub.enabled:
                hub.add("placement.reused")
            solution = copy.deepcopy(stored[0])
            fb_report = dict(stored[1])
            optimized = _priced(stored[2], energy_model)

        if optimized.return_value != baseline.return_value:
            raise AssertionError(
                f"{name}/{opt_level}: optimization changed the result "
                f"({baseline.return_value} -> {optimized.return_value})")

        return BenchmarkRun(name=name, opt_level=opt_level, baseline=baseline,
                            optimized=optimized, solution=solution,
                            frequency_mode=spec.frequency_mode,
                            fb_report=fb_report)

    def run_baseline(self, name: str, opt_level: str = "O2",
                     timing_model: str = "flat") -> BenchmarkRun:
        """Compile and simulate one benchmark without the optimization."""
        return BenchmarkRun(name=name, opt_level=opt_level,
                            baseline=self._baseline(name, opt_level,
                                                    timing_model,
                                                    self.energy_model))

    def run_optimized(self, name: str, opt_level: str = "O2",
                      x_limit: float = 1.5,
                      r_spare: Optional[int] = None,
                      frequency_mode: str = "static",
                      solver: str = "ilp",
                      timing_model: str = "flat") -> BenchmarkRun:
        """Full experiment for one benchmark: baseline, optimize, re-run.

        ``frequency_mode="profile"`` feeds the baseline simulation's block
        counts to the optimizer (the dotted points of Figure 5).
        ``timing_model`` applies to the cost model and both simulations.
        """
        spec = ExperimentSpec(benchmark=name, opt_level=opt_level,
                              x_limit=x_limit, r_spare=r_spare,
                              frequency_mode=frequency_mode, solver=solver,
                              timing_model=timing_model)
        return self._optimized(spec, self.energy_model)

    # ------------------------------------------------------------------ #
    # Grids
    # ------------------------------------------------------------------ #
    def run_cell(self, spec: ExperimentSpec,
                 energy_model: Optional[EnergyModel] = None) -> BenchmarkRun:
        """Run one cell, optionally under a cell-specific energy model."""
        model = energy_model if energy_model is not None else self.energy_model
        with get_telemetry().span("cell", benchmark=spec.benchmark,
                                  opt_level=spec.opt_level,
                                  x_limit=spec.x_limit, solver=spec.solver,
                                  frequency_mode=spec.frequency_mode,
                                  timing_model=spec.timing_model):
            if not spec.optimize:
                return BenchmarkRun(
                    name=spec.benchmark, opt_level=spec.opt_level,
                    baseline=self._baseline(spec.benchmark, spec.opt_level,
                                            spec.timing_model, model))
            return self._optimized(spec, model)

    def run_cells(self,
                  cells: Sequence[Tuple[ExperimentSpec, Optional[EnergyModel]]],
                  max_workers: Optional[int] = None,
                  progress: Optional[Callable[[int, int], None]] = None
                  ) -> List[BenchmarkRun]:
        """Run ``(spec, energy_model)`` cells; results are in cell order.

        ``energy_model=None`` means the engine default.  This is the fan-out
        primitive behind both plain grids (:meth:`run_grid`) and the
        ``repro.explore`` design-space sweeps, whose cells vary the flash/RAM
        energy ratio.  Worker processes compute the exact same floats the
        sequential path does, so parallel and sequential runs are bitwise
        identical.

        ``progress`` (when given) is called as ``progress(done, total)``
        after each completed cell — on the pool path, after each in-order
        result is collected — purely for live reporting; it never affects
        the results.
        """
        resolved = [(spec, model if model is not None else self.energy_model)
                    for spec, model in cells]
        workers = max_workers if max_workers is not None else self.max_workers
        if workers is None:
            workers = os.cpu_count() or 1
        workers = min(workers, len(resolved)) if resolved else 1

        if workers <= 1 or len(resolved) <= 1:
            sequential: List[BenchmarkRun] = []
            for spec, model in resolved:
                sequential.append(self.run_cell(spec, model))
                if progress is not None:
                    progress(len(sequential), len(resolved))
            return sequential

        # Keep same-(benchmark, level) cells on one worker so its per-process
        # engine reuses the compile and the memoised simulations.  Plain grids
        # are already contiguous, but sharded/resumed sweeps hand us subsets
        # scattered across benchmarks, so tasks are regrouped for the pool
        # and the results put back in cell order afterwards.  Per-cell floats
        # do not depend on which worker computes them, so the regrouping is
        # invisible in the output.
        order = sorted(range(len(resolved)),
                       key=lambda i: (resolved[i][0].benchmark,
                                      resolved[i][0].opt_level, i))
        tasks = [(resolved[i][0], resolved[i][1], self.cache_dir)
                 for i in order]
        chunksize = -(-len(tasks) // workers)
        self._pool_epoch += 1
        epoch = self._pool_epoch
        outputs: List[BenchmarkRun] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for output, pid, stats in pool.map(_grid_worker, tasks,
                                               chunksize=chunksize):
                # Snapshots are cumulative per worker process; the latest
                # one per (epoch, pid) supersedes the earlier ones.
                self.pool_cache_stats[(epoch, pid)] = stats
                outputs.append(output)
                if progress is not None:
                    progress(len(outputs), len(resolved))
        results: List[Optional[BenchmarkRun]] = [None] * len(resolved)
        for position, index in enumerate(order):
            results[index] = outputs[position]
        return results

    def merged_cache_stats(self) -> Dict[str, int]:
        """Cache statistics including the pool workers' contributions.

        The engine's own :class:`~repro.engine.cache.CacheStats` only sees
        in-process traffic; compiles and disk hits performed by spawned
        ``run_cells`` workers are returned through the pool (one cumulative
        snapshot per worker, latest wins) and summed here.  All fields are
        additive counts, so the derived ``compiles`` column sums correctly
        too.
        """
        merged = self.cache.stats.as_dict()
        for snapshot in self.pool_cache_stats.values():
            for key, value in snapshot.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def run_grid(self, specs: Sequence[ExperimentSpec],
                 max_workers: Optional[int] = None) -> List[BenchmarkRun]:
        """Run a grid of experiments; results are in spec order.

        ``max_workers`` (falling back to the engine default, then to the CPU
        count) caps the process fan-out; ``<= 1`` runs sequentially in
        process, which shares this engine's caches and is what tests use for
        determinism checks.
        """
        return self.run_cells([(spec, None) for spec in specs],
                              max_workers=max_workers)


def _priced(result: SimulationResult,
            energy_model: EnergyModel) -> SimulationResult:
    """A memoised *result* priced under *energy_model* (a ``sim.reused``)."""
    hub = get_telemetry()
    if hub.enabled:
        hub.add("sim.reused")
    return result.priced(energy_model)


# --------------------------------------------------------------------------- #
# Worker-process plumbing
# --------------------------------------------------------------------------- #
#: Per-process engines reused across tasks, one per cache dir.
_WORKER_ENGINES: Dict[Optional[str], ExperimentEngine] = {}


def _worker_cache_stats() -> Dict[str, int]:
    """This worker process's cumulative cache stats, over all its engines."""
    totals: Dict[str, int] = {}
    for engine in _WORKER_ENGINES.values():
        for key, value in engine.cache.stats.as_dict().items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _grid_worker(payload: Tuple[ExperimentSpec, EnergyModel, Optional[str]]
                 ) -> Tuple[BenchmarkRun, int, Dict[str, int]]:
    """Run one cell in a pool worker; returns (run, pid, cache stats).

    The stats snapshot is cumulative for this worker process so the parent
    can fold pool-side compiles/disk hits into its own summary (keeping only
    the latest snapshot per worker)."""
    spec, energy_model, cache_dir = payload
    engine = _WORKER_ENGINES.get(cache_dir)
    if engine is None:
        engine = ExperimentEngine(max_workers=1, cache_dir=cache_dir)
        _WORKER_ENGINES[cache_dir] = engine
    run = engine.run_cell(spec, energy_model)
    return run, os.getpid(), _worker_cache_stats()


# --------------------------------------------------------------------------- #
# Default engine
# --------------------------------------------------------------------------- #
_DEFAULT_ENGINE: Optional[ExperimentEngine] = None


def default_engine() -> ExperimentEngine:
    """The process-wide engine used by the evaluation convenience wrappers."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExperimentEngine()
    return _DEFAULT_ENGINE
