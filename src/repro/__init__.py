"""Reproduction of Pallister, Eder & Hollis (CGO 2015):
"Optimizing the flash-RAM energy trade-off in deeply embedded systems".

High-level experiment API (the engine compiles each program once, memoises
baselines and fans grids out over processes)::

    from repro import ExperimentEngine, ExperimentSpec

    engine = ExperimentEngine()
    run = engine.run_optimized("int_matmult", "O2", x_limit=1.5)
    print(run.energy_change, run.time_change)

    grid = [ExperimentSpec(benchmark=n, opt_level=l)
            for n in ("fdct", "crc32") for l in ("O2", "Os")]
    runs = engine.run_grid(grid)          # parallel, deterministic order

Design-space exploration (sweeps the placement knobs and extracts the
energy/time/RAM Pareto frontier; see ``repro.explore``)::

    from repro import SweepSpec, run_sweep
    result = run_sweep(SweepSpec(benchmarks=("crc32",), x_limits=(1.1, 1.5)))

Low-level compiler/simulator API::

    from repro import compile_source, CompileOptions, Simulator, optimize_program

    program = compile_source(source, CompileOptions.for_level("O2"))
    baseline = Simulator(program).run()
    solution = optimize_program(program, x_limit=1.5)
    optimized = Simulator(program).run()

See ``DESIGN.md`` for the system inventory and engine architecture.
"""

from repro.codegen import CompileOptions, OptLevel, compile_ir_module, compile_source
from repro.engine import (
    BenchmarkRun,
    ExperimentEngine,
    ExperimentSpec,
    ProgramCache,
    ResultStore,
    default_engine,
)
from repro.explore import (
    SweepSpec,
    pareto_records,
    run_sweep,
)
from repro.placement import (
    FlashRAMOptimizer,
    PlacementConfig,
    PlacementSolution,
    optimize_program,
)
from repro.power import PeriodicSensingModel, SleepParameters
from repro.sim import EnergyModel, PowerTable, SimulationResult, Simulator

__version__ = "0.2.0"

__all__ = [
    "CompileOptions",
    "OptLevel",
    "compile_source",
    "compile_ir_module",
    "BenchmarkRun",
    "ExperimentEngine",
    "ExperimentSpec",
    "ProgramCache",
    "ResultStore",
    "default_engine",
    "SweepSpec",
    "run_sweep",
    "pareto_records",
    "FlashRAMOptimizer",
    "PlacementConfig",
    "PlacementSolution",
    "optimize_program",
    "PeriodicSensingModel",
    "SleepParameters",
    "EnergyModel",
    "PowerTable",
    "Simulator",
    "SimulationResult",
    "__version__",
]
