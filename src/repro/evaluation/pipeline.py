"""Shared compile/optimize/simulate pipeline used by every experiment.

Since the engine refactor these helpers are thin wrappers over
:class:`repro.engine.ExperimentEngine`: programs are compiled exactly once per
process through the content-addressed cache (the seed implementation compiled
each optimized benchmark twice from source), baselines are simulated on the
shared pristine program, and the placement optimizer works on a private deep
copy.  :class:`BenchmarkRun` now lives in :mod:`repro.engine.results` and is
re-exported here for compatibility.
"""

from __future__ import annotations

from typing import Optional

from repro.beebs import Benchmark, get_benchmark
from repro.codegen import CompileOptions
from repro.engine.cache import default_cache
from repro.engine.engine import ExperimentEngine, default_engine
from repro.engine.results import BenchmarkRun
from repro.machine.program import MachineProgram
from repro.sim import EnergyModel

__all__ = [
    "BenchmarkRun",
    "compile_benchmark",
    "run_optimized_benchmark",
]


def _engine_for(energy_model: Optional[EnergyModel]) -> ExperimentEngine:
    """The default engine, or an ephemeral one for a custom energy model.

    The ephemeral engine still shares the process-wide program cache —
    compilation is independent of the energy model — but keeps its own
    baseline-result memo, which does depend on it.
    """
    if energy_model is None:
        return default_engine()
    return ExperimentEngine(energy_model=energy_model)


def compile_benchmark(benchmark: Benchmark, opt_level: str = "O2") -> MachineProgram:
    """Compile one benchmark at the requested level.

    Returns a private copy (callers may transform it); the underlying compile
    happens at most once per process.
    """
    options = CompileOptions.for_level(opt_level, program_name=benchmark.name)
    return default_cache().get_mutable(benchmark.source, options)


def run_optimized_benchmark(name: str, opt_level: str = "O2",
                            x_limit: float = 1.5,
                            r_spare: Optional[int] = None,
                            frequency_mode: str = "static",
                            solver: str = "ilp",
                            energy_model: Optional[EnergyModel] = None) -> BenchmarkRun:
    """Run the full experiment for one benchmark: baseline, optimize, re-run.

    ``frequency_mode="profile"`` first simulates the baseline to collect block
    counts and feeds them to the optimizer (the dotted points of Figure 5).
    """
    get_benchmark(name)  # fail fast on unknown names, as the seed did
    return _engine_for(energy_model).run_optimized(
        name, opt_level, x_limit=x_limit, r_spare=r_spare,
        frequency_mode=frequency_mode, solver=solver)
