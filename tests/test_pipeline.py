"""Tests for the pipelined/cached timing model and its sweep axis.

Covers the bitwise-determinism contract (flat runs and flat stores are
byte-identical to pre-axis behaviour, pipelined and two-level stores to
committed references), the pipelined simulator semantics
(deterministic, slower than flat without a cache, faster again with one),
the ``TimingSpec`` parser, the ``SweepSpec`` axis round trip, cell-key
stability, and the pipelined placement cost model.
"""

import filecmp
import json
import os

import pytest

from repro.beebs import get_benchmark
from repro.engine import ExperimentEngine, ExperimentSpec, ProgramCache, ResultStore
from repro.evaluation.pipeline import compile_benchmark
from repro.explore import SweepSpec, cell_key, execute_sweep, run_sweep
from repro.explore.sweep import SweepCell
from repro.placement import FlashRAMOptimizer, PlacementConfig
from repro.sim import Simulator, TimingSpec
from repro.sim.pipeline import TIMING_MODELS

REFERENCE_STORE = os.path.join(os.path.dirname(__file__), "data",
                               "reference_flat_sweep.json")
#: Pipelined twin of REFERENCE_STORE, written by ``repro-eval explore
#: --benchmarks 2dfir dijkstra --x-limits 1.05 1.5 --solvers ilp greedy
#: --timing-models pipelined pipelined+icache pipelined+icache:32x8
#: --flash-ram-ratios --workers 1``.  Its greedy cells run hundreds of
#: ``it``-predicated long branches, so it pins the fetch stage's predication
#: paths as well as the icache and hazard accounting.
PIPELINED_REFERENCE_STORE = os.path.join(os.path.dirname(__file__), "data",
                                         "reference_pipelined_sweep.json")
#: Two-level twin of REFERENCE_STORE, written by ``repro-eval explore
#: --benchmarks crc32 fdct --levels O2 Os --x-limits 1.05 1.5
#: --flash-ram-ratios 1.4 1.7 --solvers ilp greedy --workers 1``.  fdct
#: compiles to one program at O2 and Os and crc32 to two, so it pins cells
#: the engine computes once for two levels next to cells it cannot share.
LEVELS_REFERENCE_STORE = os.path.join(os.path.dirname(__file__), "data",
                                      "reference_levels_sweep.json")


def simulate(name="crc32", timing_model="flat"):
    program = compile_benchmark(get_benchmark(name), "O2")
    return Simulator(program, timing_model=timing_model).run()


# --------------------------------------------------------------------------- #
# TimingSpec parsing and derived quantities
# --------------------------------------------------------------------------- #

def test_timing_spec_parse_canonical_forms():
    assert TimingSpec.parse("flat").is_flat
    assert TimingSpec.parse("flat").name == "flat"
    pipe = TimingSpec.parse("pipelined")
    assert not pipe.is_flat and not pipe.has_icache
    assert pipe.name == "pipelined"
    cached = TimingSpec.parse("pipelined+icache")
    assert cached.has_icache
    assert cached.name == "pipelined+icache:16x16"
    assert TimingSpec.parse("pipelined+icache:32x8").name == "pipelined+icache:32x8"
    # Parsing a canonical name round-trips.
    for model in TIMING_MODELS:
        spec = TimingSpec.parse(model)
        assert TimingSpec.parse(spec.name) == spec


def test_timing_spec_parse_rejects_bad_input():
    for bad in ("", "turbo", "pipelined+icache:0x16", "pipelined+icache:16x6",
                "pipelined+icache:16", "pipelined+icache:-4x16"):
        with pytest.raises(ValueError):
            TimingSpec.parse(bad)


def test_timing_spec_miss_penalty_scales_with_line_size():
    # One flash wait state per 4-byte fetch in the refill burst.
    assert TimingSpec.parse("pipelined+icache:16x16").miss_penalty == 4
    assert TimingSpec.parse("pipelined+icache:32x8").miss_penalty == 2
    assert TimingSpec.parse("pipelined").miss_penalty == 0


def test_timing_spec_effective_e_flash():
    from repro.sim import EnergyModel
    model = EnergyModel()
    plain = TimingSpec.parse("pipelined")
    assert plain.effective_e_flash(model) == model.e_flash
    cached = TimingSpec.parse("pipelined+icache")
    blended = cached.effective_e_flash(model)
    # The blend sits strictly between the RAM and flash per-instruction costs.
    assert model.e_ram < blended < model.e_flash


# --------------------------------------------------------------------------- #
# Simulator semantics
# --------------------------------------------------------------------------- #

def test_pipelined_models_agree_on_results_and_order_cycles():
    flat = simulate(timing_model="flat")
    pipe = simulate(timing_model="pipelined")
    cached = simulate(timing_model="pipelined+icache")
    # Architectural state is timing-independent.
    assert flat.return_value == pipe.return_value == cached.return_value
    assert flat.instructions == pipe.instructions == cached.instructions
    # Flash wait states + hazards make the uncached pipeline slower than the
    # flat model; an icache absorbs most of the fetch stalls.
    assert pipe.cycles > flat.cycles
    assert cached.cycles < pipe.cycles
    # Icache hits are charged at RAM-fetch power, so energy drops too.
    assert cached.energy_j < pipe.energy_j


def test_pipelined_runs_are_deterministic():
    for model in ("pipelined", "pipelined+icache"):
        first = simulate("2dfir", timing_model=model)
        second = simulate("2dfir", timing_model=model)
        assert first.cycles == second.cycles
        assert repr(first.energy_j) == repr(second.energy_j)


def test_flat_run_unchanged_by_timing_plumbing():
    # A simulator constructed without the argument and one constructed with
    # the explicit default must behave identically (same code path).
    program = compile_benchmark(get_benchmark("crc32"), "O2")
    implicit = Simulator(program).run()
    program = compile_benchmark(get_benchmark("crc32"), "O2")
    explicit = Simulator(program, timing_model="flat").run()
    assert implicit.cycles == explicit.cycles
    assert repr(implicit.energy_j) == repr(explicit.energy_j)


def test_interpreted_oracle_is_flat_only():
    # decode_once=False means "run the flat oracle": paired with another
    # timing model it must fail, not quietly run the decode-once loop.
    program = compile_benchmark(get_benchmark("crc32"), "O2")
    for model in ("pipelined", "pipelined+icache"):
        with pytest.raises(ValueError, match="flat interpreted oracle"):
            Simulator(program, decode_once=False, timing_model=model)


def test_hazard_metadata_present_on_decoded_stream():
    from repro.isa.instructions import Opcode
    from repro.isa.timing import load_dest, registers_read
    program = compile_benchmark(get_benchmark("crc32"), "O2")
    saw_load, saw_reads = False, False
    for function in program.functions.values():
        for block in function.blocks.values():
            for instr in block.instructions:
                if instr.opcode in (Opcode.LDR, Opcode.LDRB):
                    saw_load = saw_load or load_dest(instr) >= 0
                if registers_read(instr):
                    saw_reads = True
    assert saw_load and saw_reads


# --------------------------------------------------------------------------- #
# Sweep axis, cell keys, store bytes
# --------------------------------------------------------------------------- #

def test_sweep_spec_canonicalizes_timing_models():
    spec = SweepSpec(benchmarks=("crc32",), x_limits=(1.5,),
                     timing_models=("flat", "pipelined+icache"))
    assert spec.timing_models == ("flat", "pipelined+icache:16x16")
    assert spec.size == 2  # every other axis is a singleton
    assert spec.size == len(spec.cells())
    # The shorthand and its explicit default geometry are the same identity.
    explicit = SweepSpec(benchmarks=("crc32",), x_limits=(1.5,),
                         timing_models=("flat", "pipelined+icache:16x16"))
    assert [cell.key for cell in spec.cells()] == \
        [cell.key for cell in explicit.cells()]


def test_sweep_meta_roundtrip_with_and_without_axis():
    flat = SweepSpec(benchmarks=("crc32",), x_limits=(1.5,))
    assert "timing_models" not in flat.meta()
    assert SweepSpec.from_meta(flat.meta()) == flat

    mixed = SweepSpec(benchmarks=("crc32",), x_limits=(1.5,),
                      timing_models=("flat", "pipelined"))
    meta = json.loads(json.dumps(mixed.meta()))
    assert meta["timing_models"] == ["flat", "pipelined"]
    assert SweepSpec.from_meta(meta) == mixed


def test_cell_key_flat_omission_keeps_historical_keys():
    base = SweepCell(spec=ExperimentSpec(benchmark="crc32", x_limit=1.5))
    explicit = SweepCell(spec=ExperimentSpec(benchmark="crc32", x_limit=1.5,
                                             timing_model="flat"))
    assert cell_key(base) == cell_key(explicit)
    # The key of the first reference-store cell, pinned: it must never move.
    reference = json.load(open(REFERENCE_STORE))
    assert cell_key(base) == reference["records"][0]["cell_key"]
    pipelined = SweepCell(spec=ExperimentSpec(benchmark="crc32", x_limit=1.5,
                                              timing_model="pipelined"))
    assert cell_key(pipelined) != cell_key(base)


def rerun_store_matches(reference_path, tmp_path):
    """Re-run the sweep a committed store records; compare the bytes."""
    reference = json.load(open(reference_path))
    sweep = SweepSpec.from_meta(reference["meta"])
    execute_sweep(sweep, store=ResultStore(str(tmp_path)), name="sweep",
                  engine=ExperimentEngine(cache=ProgramCache(), max_workers=1))
    return filecmp.cmp(str(tmp_path / "sweep.json"), reference_path,
                       shallow=False)


def test_flat_store_bytes_identical_to_reference(tmp_path):
    assert rerun_store_matches(REFERENCE_STORE, tmp_path)


def test_pipelined_store_bytes_identical_to_reference(tmp_path):
    assert rerun_store_matches(PIPELINED_REFERENCE_STORE, tmp_path)


def test_levels_store_bytes_identical_to_reference(tmp_path):
    assert rerun_store_matches(LEVELS_REFERENCE_STORE, tmp_path)


def test_pipelined_sweep_records_tag_timing_model():
    sweep = SweepSpec(benchmarks=("crc32",), x_limits=(1.5,),
                      timing_models=("flat", "pipelined"))
    result = run_sweep(sweep, engine=ExperimentEngine(cache=ProgramCache(),
                                                      max_workers=1))
    by_model = {record.get("timing_model", "flat"): record
                for record in result.records}
    assert set(by_model) == {"flat", "pipelined"}
    assert "timing_model" not in by_model["flat"]  # byte-compat omission
    # The pipelined cost model sees flash wait states, so moving blocks to
    # RAM removes stall cycles: time improves instead of degrading.
    assert by_model["pipelined"]["time_change"] < by_model["flat"]["time_change"]


def test_pipelined_clock_shifts_the_placement_frontier():
    """The frontier of a Figure 5-style grid under each timing model."""
    sweep = SweepSpec(benchmarks=("crc32", "fdct", "2dfir"),
                      x_limits=(1.05, 1.1, 1.5, 2.0),
                      timing_models=("flat", "pipelined", "pipelined+icache"))
    result = run_sweep(sweep, engine=ExperimentEngine(cache=ProgramCache(),
                                                      max_workers=1))
    by_model = {}
    for record in result.records:
        by_model.setdefault(record.get("timing_model", "flat"),
                            []).append(record)
    flat, pipe, cached = (by_model[model] for model in
                          ("flat", "pipelined", "pipelined+icache:16x16"))
    assert len(flat) == len(pipe) == len(cached) == sweep.size // 3

    def mean(cells, field):
        return sum(record[field] for record in cells) / len(cells)

    # Wait states slow the baseline; the icache wins most of it back.
    assert mean(pipe, "baseline_cycles") > mean(flat, "baseline_cycles")
    assert mean(cached, "baseline_cycles") < mean(pipe, "baseline_cycles")
    # Under the pipelined clock RAM placement buys time: no cell slows down
    # more than its flat twin, and the mean time change goes negative.
    for twin, record in zip(flat, pipe):
        assert (twin["benchmark"], twin["x_limit"]) == \
            (record["benchmark"], record["x_limit"])
        assert record["time_change"] <= twin["time_change"] + 1e-12
    assert mean(pipe, "time_change") < 0
    assert mean(pipe, "energy_change") < mean(flat, "energy_change") < 0
    # The icache absorbs flash fetch energy, so it keeps under half of the
    # uncached pipeline's mean energy savings.
    assert (abs(mean(cached, "energy_change"))
            < 0.5 * abs(mean(pipe, "energy_change")))


# --------------------------------------------------------------------------- #
# Placement cost model under pipelined timing
# --------------------------------------------------------------------------- #

def cost_model(timing_model):
    program = ProgramCache().get_benchmark_mutable("crc32", "O2")
    optimizer = FlashRAMOptimizer(
        program, config=PlacementConfig(timing_model=timing_model))
    return optimizer.build_cost_model()


def test_pipelined_cost_model_adds_stall_cycles():
    flat = cost_model("flat")
    pipe = cost_model("pipelined")
    assert pipe.baseline_cycles() > flat.baseline_cycles()
    assert any(p.flash_stall_cycles for p in pipe.parameters.values())
    assert not any(p.flash_stall_cycles for p in flat.parameters.values())


def test_icache_cost_model_discounts_flash_energy():
    pipe = cost_model("pipelined")
    cached = cost_model("pipelined+icache")
    assert cached.e_flash < pipe.e_flash
    assert cached.e_ram == pipe.e_ram


def test_pipelined_placement_end_to_end():
    engine = ExperimentEngine(cache=ProgramCache(), max_workers=1)
    run = engine.run_optimized("crc32", x_limit=2.0, timing_model="pipelined")
    # Placement must respect the time bound under the pipelined clock and
    # still save energy on this kernel.
    assert 1.0 + run.time_change <= 2.0 + 1e-9
    assert run.energy_change < 0
