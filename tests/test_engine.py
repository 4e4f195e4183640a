"""Experiment engine tests: cache, grids, result store, decode-once parity."""

import json

import pytest

import repro.engine.cache as cache_module
import repro.engine.engine as engine_module
from repro.beebs import get_benchmark
from repro.codegen import CompileOptions, compile_source
from repro.engine import (
    ExperimentEngine,
    ExperimentSpec,
    ProgramCache,
    ResultStore,
    records_equal,
    run_record,
)
from repro.evaluation.figure5 import SuiteRow, evaluate_suite, suite_specs
from repro.explore import (
    SweepSpec,
    cell_record,
    run_sweep_cells,
    scaled_energy_model,
)
from repro.isa.registers import PC, SP
from repro.placement import FlashRAMOptimizer, PlacementConfig
from repro.sim import Simulator
from repro.transform import apply_placement

#: Small sample of the BEEBS grid used by the regression sweeps.
SAMPLE_GRID = [("crc32", "O2"), ("crc32", "Os"), ("fdct", "O2"), ("2dfir", "O2")]


def fresh_engine() -> ExperimentEngine:
    return ExperimentEngine(cache=ProgramCache())


def result_tuple(result):
    """Every observable field of a SimulationResult, for exact comparison."""
    return (result.return_value, result.cycles, result.instructions,
            result.energy_j, result.time_s, dict(result.cycles_by_section),
            dict(result.profile.counts), dict(result.profile.cycles))


# --------------------------------------------------------------------------- #
# Program cache
# --------------------------------------------------------------------------- #
def test_optimized_run_compiles_exactly_once(monkeypatch):
    compiles = []
    real_compile = cache_module.compile_source

    def counting_compile(source, options):
        compiles.append((options.program_name, str(options.opt_level)))
        return real_compile(source, options)

    monkeypatch.setattr(cache_module, "compile_source", counting_compile)
    engine = fresh_engine()
    engine.run_optimized("crc32", "O2")
    assert compiles == [("crc32", "O2")]

    # Re-running (any frequency mode) must not recompile.
    engine.run_optimized("crc32", "O2", frequency_mode="profile")
    engine.run_baseline("crc32", "O2")
    assert compiles == [("crc32", "O2")]

    # A different level is a different key.
    engine.run_optimized("crc32", "Os")
    assert compiles == [("crc32", "O2"), ("crc32", "Os")]


def test_cache_stats_and_shared_instance():
    cache = ProgramCache()
    first = cache.get_benchmark("crc32", "O2")
    second = cache.get_benchmark("crc32", "O2")
    assert first is second
    assert cache.stats.compiles == 1 and cache.stats.hits == 1

    mutable = cache.get_benchmark_mutable("crc32", "O2")
    assert mutable is not first
    assert cache.stats.compiles == 1  # deepcopy, not a recompile


def test_mutable_copy_preserves_register_identity_and_isolation():
    cache = ProgramCache()
    pristine = cache.get_benchmark("crc32", "O2")
    clone = cache.get_benchmark_mutable("crc32", "O2")

    # Register operands must stay the canonical singletons (`reg is PC`/`is SP`
    # checks inside the simulator and def/use analysis rely on identity).
    for function in clone.iter_functions():
        for block in function.iter_blocks():
            for instr in block.instructions:
                for operand in instr.operands:
                    regs = getattr(operand, "regs", None)
                    if regs is not None:
                        for reg in regs:
                            if reg.index == PC.index:
                                assert reg is PC
                            if reg.index == SP.index:
                                assert reg is SP

    # Transforming the copy must not leak into the pristine shared program.
    FlashRAMOptimizer(clone, config=PlacementConfig(x_limit=1.5)).optimize()
    assert clone.ram_code_size() > 0
    assert pristine.ram_code_size() == 0


# --------------------------------------------------------------------------- #
# BEEBS grid regression: the engine against the seed pipeline
# --------------------------------------------------------------------------- #
def seed_compile(name: str, level: str):
    benchmark = get_benchmark(name)
    options = CompileOptions.for_level(level, program_name=benchmark.name)
    return compile_source(benchmark.source, options)


def seed_cell(spec) -> SuiteRow:
    """One Figure 5 cell as the seed pipeline ran it: compile twice,
    interpreted simulator, no caching."""
    baseline = Simulator(seed_compile(spec.benchmark, spec.opt_level),
                         decode_once=False).run()
    program = seed_compile(spec.benchmark, spec.opt_level)
    config = PlacementConfig(x_limit=spec.x_limit, r_spare=spec.r_spare,
                             frequency_mode=spec.frequency_mode,
                             solver=spec.solver)
    profile = baseline.profile if spec.frequency_mode == "profile" else None
    solution = FlashRAMOptimizer(program, config=config).optimize(
        profile=profile)
    optimized = Simulator(program, decode_once=False).run()
    assert optimized.return_value == baseline.return_value
    return SuiteRow(
        benchmark=spec.benchmark,
        opt_level=spec.opt_level,
        frequency_mode=spec.frequency_mode,
        energy_change=optimized.energy_j / baseline.energy_j - 1.0,
        time_change=optimized.cycles / baseline.cycles - 1.0,
        power_change=(optimized.average_power_w
                      / baseline.average_power_w - 1.0),
        ram_bytes=solution.estimate.ram_bytes if solution.estimate else 0,
        blocks_moved=len(solution.ram_blocks),
    )


@pytest.mark.parametrize("name,level", SAMPLE_GRID)
def test_grid_sample_optimized_matches_baseline_and_seed_simulator(name, level):
    engine = fresh_engine()
    run = engine.run_optimized(name, level)

    # The optimization must not change program results.
    assert run.optimized.return_value == run.baseline.return_value
    assert run.solution is not None and run.solution.ram_blocks

    # The engine (one compile, shared programs, memoised superblocked
    # simulations) must reproduce the seed pipeline's Figure 5 rows exactly,
    # with estimated and with profiled block frequencies.
    modes = ("static", "profile")
    rows = evaluate_suite(benchmarks=[name], levels=[level],
                          frequency_modes=modes, engine=engine, max_workers=1)
    assert [row.as_dict() for row in rows] == \
        [seed_cell(spec).as_dict()
         for spec in suite_specs([name], [level], modes)]

    # The decode-once fast path must reproduce the interpreted simulator's
    # numbers exactly on the pristine and on a transformed program.
    pristine = engine.compile_benchmark(name, level)
    assert result_tuple(run.baseline) == \
        result_tuple(Simulator(pristine, decode_once=False).run())

    transformed = engine.compile_benchmark_mutable(name, level)
    FlashRAMOptimizer(transformed, config=PlacementConfig(x_limit=1.5)).optimize()
    assert result_tuple(Simulator(transformed).run()) == \
        result_tuple(Simulator(transformed, decode_once=False).run())


def test_decode_cache_invalidated_by_placement():
    engine = fresh_engine()
    program = engine.compile_benchmark_mutable("crc32", "O2")
    before = Simulator(program).run()
    generation = program.layout_generation

    FlashRAMOptimizer(program, config=PlacementConfig(x_limit=1.5)).optimize()
    assert program.layout_generation > generation

    after = Simulator(program).run()          # must re-decode, not reuse
    assert after.return_value == before.return_value
    assert after.cycles_by_section["ram"] > 0


# --------------------------------------------------------------------------- #
# Grids: determinism and parallel/sequential equivalence
# --------------------------------------------------------------------------- #
def test_sequential_grid_matches_individual_runs_bitwise():
    specs = [ExperimentSpec(benchmark=n, opt_level=l) for n, l in SAMPLE_GRID]
    grid_runs = fresh_engine().run_grid(specs, max_workers=1)
    assert [run.name for run in grid_runs] == [n for n, _ in SAMPLE_GRID]

    single_engine = fresh_engine()
    for spec, run in zip(specs, grid_runs):
        single = single_engine.run_cell(spec)
        assert run_record(single) == run_record(run)


def test_parallel_grid_matches_sequential_bitwise():
    specs = [ExperimentSpec(benchmark="crc32", opt_level="O2"),
             ExperimentSpec(benchmark="fdct", opt_level="O2")]
    sequential = fresh_engine().run_grid(specs, max_workers=1)
    parallel = fresh_engine().run_grid(specs, max_workers=2)
    assert [run_record(run) for run in parallel] == \
        [run_record(run) for run in sequential]


def test_evaluate_suite_through_engine_matches_direct_runs():
    rows = evaluate_suite(benchmarks=["crc32"], levels=["O2"],
                          frequency_modes=("static", "profile"),
                          engine=fresh_engine(), max_workers=1)
    assert [(row.benchmark, row.opt_level, row.frequency_mode) for row in rows] \
        == [("crc32", "O2", "static"), ("crc32", "O2", "profile")]
    for row in rows:
        assert row.energy_change < 0
        assert row.blocks_moved > 0


# --------------------------------------------------------------------------- #
# Simulation reuse: one simulation per placed program, priced per cell
# --------------------------------------------------------------------------- #
#: 32 cells over 6 baselines: fdct compiles to one program at O2 and Os,
#: crc32 to two.  The ratio axis never changes what runs, X_limits that pick
#: the same RAM set share a placement, and level twins share everything.
REUSE_SWEEP = SweepSpec(benchmarks=("crc32", "fdct"), opt_levels=("O2", "Os"),
                        x_limits=(1.05, 1.3), flash_ram_ratios=(1.4, 1.7),
                        timing_models=("flat", "pipelined"))


def canonical(record) -> str:
    return json.dumps(record, sort_keys=True)


def test_sweep_simulates_each_placed_program_once(monkeypatch):
    cache = ProgramCache()
    cells = REUSE_SWEEP.cells()
    simulated = []
    real_run = Simulator.run

    def counting_run(simulator, *args, **kwargs):
        simulated.append(simulator.program)
        return real_run(simulator, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "run", counting_run)
        runs = run_sweep_cells(cells, ExperimentEngine(cache=cache),
                               max_workers=1)
    records = [cell_record(cell, run) for cell, run in zip(cells, runs)]

    # (a) Reuse is invisible: each record equals its cell run alone.
    for cell, record in zip(cells, records):
        [alone] = run_sweep_cells([cell], ExperimentEngine(cache=cache),
                                  max_workers=1)
        assert canonical(cell_record(cell, alone)) == canonical(record)

    # (b) One simulation per distinct baseline and per distinct placement,
    # where "distinct" is the compiled program, not the level that asked.
    baselines, placements = set(), set()
    for record in records:
        program = (cache.benchmark_digest(record["benchmark"],
                                          record["opt_level"]),
                   record.get("timing_model", "flat"))
        baselines.add(program)
        placements.add(program + (tuple(record["ram_blocks"]),))
    assert len(baselines) == 6
    assert len(simulated) == len(baselines) + len(placements)
    assert len(simulated) < 2 * len(cells)

    # (c) Pricing a memoised run under another energy model equals
    # simulating under that model, bitwise.
    other = scaled_energy_model(1.7)
    for cell, run in zip(cells, runs):
        if cell.flash_ram_ratio != 1.4 or cell.spec.x_limit != 1.3:
            continue
        name, level = cell.spec.benchmark, cell.spec.opt_level
        timing = cell.spec.timing_model
        placed = cache.get_benchmark_mutable(name, level)
        apply_placement(placed, run.solution.ram_blocks)
        for stored, program in ((run.baseline, cache.get_benchmark(name, level)),
                                (run.optimized, placed)):
            priced = stored.priced(other)
            fresh = Simulator(program, energy_model=other,
                              timing_model=timing).run()
            assert (priced.energy_j, priced.time_s) == \
                (fresh.energy_j, fresh.time_s)
            assert result_tuple(priced) == result_tuple(fresh)
        # The baseline runs from flash, so the two models really differ.
        assert run.baseline.priced(other).energy_j != run.baseline.energy_j


def test_bounded_memos_stay_exact_under_eviction(monkeypatch):
    """With room for two entries per memo, fdct Os reuses both of its O2
    twin's placements, the first after its simulation was evicted; every
    record must still equal the unbounded engine's."""
    sweep = SweepSpec(benchmarks=("crc32", "fdct"), opt_levels=("O2", "Os"),
                      x_limits=(1.05, 1.3), flash_ram_ratios=(1.4,))
    cells = sweep.cells()
    cache = ProgramCache()
    roomy = run_sweep_cells(cells, ExperimentEngine(cache=cache),
                            max_workers=1)
    solves = []
    real_optimize = FlashRAMOptimizer.optimize

    def counting_optimize(optimizer, *args, **kwargs):
        solves.append(optimizer.config.x_limit)
        return real_optimize(optimizer, *args, **kwargs)

    monkeypatch.setattr(engine_module, "SIMULATION_MEMO_CAP", 2)
    monkeypatch.setattr(FlashRAMOptimizer, "optimize", counting_optimize)
    engine = ExperimentEngine(cache=cache)
    tight = run_sweep_cells(cells, engine, max_workers=1)
    assert len(engine._simulations) == len(engine._placements) == 2
    assert len(solves) == len(cells) - 2
    for cell, expected, run in zip(cells, roomy, tight):
        assert canonical(cell_record(cell, run)) == \
            canonical(cell_record(cell, expected))


# --------------------------------------------------------------------------- #
# Result store
# --------------------------------------------------------------------------- #
def test_result_store_roundtrip_is_bitwise(tmp_path):
    engine = fresh_engine()
    runs = [engine.run_optimized("crc32", "O2"),
            engine.run_baseline("crc32", "Os")]
    store = ResultStore(tmp_path)
    store.save_runs("sample", runs, meta={"levels": ["O2", "Os"]})

    loaded = store.load("sample")
    assert records_equal(loaded, [run_record(run) for run in runs])
    assert loaded[0]["optimized"]["energy_j"] == runs[0].optimized.energy_j
    assert loaded[1]["optimized"] is None
    assert store.load_meta("sample") == {"levels": ["O2", "Os"]}


# --------------------------------------------------------------------------- #
# Return-site interning (memory boundedness of long simulations)
# --------------------------------------------------------------------------- #
def test_return_sites_are_interned_not_per_dynamic_call():
    source = """
        int f(int x) { return x + 1; }
        int main(void) {
            int s = 0;
            for (int i = 0; i < 200; ++i) { s = f(s); }
            return s;
        }
    """
    program = compile_source(source, CompileOptions.for_level("O2"))
    for decode_once in (True, False):
        simulator = Simulator(program, decode_once=decode_once)
        result = simulator.run()
        assert result.return_value == 200
        # One token per static call site, not one per dynamic call.
        assert len(simulator._return_sites) < 5
        assert len(simulator._return_sites) == len(simulator._return_site_tokens)
