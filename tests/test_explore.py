"""Tests for the design-space exploration subsystem and incremental model."""

import random
import re

import pytest

from repro.engine import ExperimentEngine, ProgramCache, ResultStore, records_equal
from repro.explore import (
    SweepSpec,
    dominates,
    mark_pareto,
    pareto_front,
    pareto_records,
    run_sweep,
    scaled_energy_model,
)
from repro.placement import (
    FlashRAMOptimizer,
    PlacementConfig,
    PlacementCostModel,
)
from repro.placement.cost_model import IncrementalPlacement
from repro.placement.parameters import BlockParameters
from repro.placement.solvers.exhaustive import (
    enumerate_placements,
    exhaustive_best_placement,
    significant_blocks,
)
from repro.sim import EnergyModel


def beebs_model(name="crc32", level="O2"):
    program = ProgramCache().get_benchmark_mutable(name, level)
    optimizer = FlashRAMOptimizer(program, config=PlacementConfig())
    return optimizer.build_cost_model()


def fresh_engine() -> ExperimentEngine:
    return ExperimentEngine(cache=ProgramCache())


# --------------------------------------------------------------------------- #
# Incremental cost-model evaluation
# --------------------------------------------------------------------------- #
def test_incremental_matches_full_evaluation_under_random_toggles():
    model = beebs_model("fdct")
    keys = model.eligible_keys()
    placement = IncrementalPlacement(model)
    rng = random.Random(7)
    for _ in range(60):
        placement.toggle(rng.choice(keys))
        full = model.evaluate(placement.ram)
        inc = placement.estimate()
        assert inc.ram_bytes == full.ram_bytes
        assert inc.instrumented == full.instrumented
        assert inc.energy_j == pytest.approx(full.energy_j, rel=1e-12)
        assert inc.cycles == pytest.approx(full.cycles, rel=1e-12)
        assert inc.time_ratio == pytest.approx(full.time_ratio, rel=1e-12)


def test_incremental_preview_does_not_mutate_state():
    model = beebs_model("crc32")
    placement = IncrementalPlacement(model)
    key = model.eligible_keys()[0]
    before = (set(placement.ram), set(placement.instrumented),
              placement.energy_j, placement.cycles, placement.ram_bytes)
    preview = placement.preview_toggle(key)
    totals = placement.preview_totals(key)
    assert (set(placement.ram), set(placement.instrumented),
            placement.energy_j, placement.cycles, placement.ram_bytes) == before
    assert preview.energy_j == totals[0]
    assert preview.time_ratio == totals[1]
    assert preview.ram_bytes == totals[2]
    # Committing produces exactly what the preview promised.
    placement.add(key)
    committed = placement.estimate()
    assert committed.energy_j == preview.energy_j
    assert committed.ram_bytes == preview.ram_bytes
    assert committed.instrumented == preview.instrumented


def test_exhaustive_gray_code_matches_full_enumeration_optimum():
    model = beebs_model("int_matmult")
    blocks = significant_blocks(model, 8)
    best = exhaustive_best_placement(model, r_spare=300, x_limit=1.5,
                                     blocks=blocks)
    # Reference: the pre-incremental implementation, one full evaluation per
    # enumerated subset.
    ref_best, ref_energy = set(), model.baseline_energy()
    for point in enumerate_placements(model, blocks, max_blocks=8):
        estimate = point.estimate
        if estimate.ram_bytes > 300 or estimate.time_ratio > 1.5 + 1e-9:
            continue
        if estimate.energy_j < ref_energy - 1e-15:
            ref_energy = estimate.energy_j
            ref_best = set(point.ram_blocks)
    assert model.evaluate(best).energy_j == pytest.approx(ref_energy, rel=1e-12)
    assert model.evaluate(best).ram_bytes == model.evaluate(ref_best).ram_bytes


# --------------------------------------------------------------------------- #
# Scaled energy models
# --------------------------------------------------------------------------- #
def test_scaled_energy_model_hits_requested_ratio():
    for ratio in (1.1, 1.7, 2.5, 4.0):
        model = scaled_energy_model(ratio)
        assert model.e_flash / model.e_ram == pytest.approx(ratio, rel=1e-12)
    base = EnergyModel()
    scaled = scaled_energy_model(2.0, base)
    assert scaled.table.ram == base.table.ram  # RAM axis untouched
    with pytest.raises(ValueError):
        scaled_energy_model(0.0)


# --------------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------------- #
def test_sweep_spec_rejects_empty_axes_and_orders_cells():
    with pytest.raises(ValueError):
        SweepSpec(benchmarks=())
    # Unknown names fail at construction, before any cell runs.
    for axes, message in ((dict(benchmarks=("nosuch",)), "benchmarks"),
                          (dict(opt_levels=("O9",)), "optimization level"),
                          (dict(solvers=("nope",)), "solvers"),
                          (dict(frequency_modes=("bogus",)), "frequency_modes")):
        with pytest.raises(ValueError, match=f"unknown {message}"):
            SweepSpec(**axes)
    # So do numbers outside the ILP's and the energy model's domains.
    for axes in (dict(x_limits=(1.1, 0.5)), dict(x_limits=(float("nan"),)),
                 dict(r_spares=(None, -64)), dict(flash_ram_ratios=(0.0,))):
        with pytest.raises(ValueError, match="values must be"):
            SweepSpec(**axes)
    # A repeated value is one cell twice, named by axis and value; timing
    # models repeat once canonical.
    for axes, message in (
            (dict(x_limits=(1.1, 1.5, 1.1)),
             "'x_limits' repeats the value 1.1"),
            (dict(benchmarks=("crc32", "crc32")),
             "'benchmarks' repeats the value 'crc32'"),
            (dict(flash_ram_ratios=(None, None)),
             "'flash_ram_ratios' repeats the value None"),
            (dict(timing_models=("pipelined+icache", "pipelined+icache:16x16")),
             "'timing_models' repeats the value 'pipelined+icache:16x16'")):
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepSpec(**axes)
    spec = SweepSpec(benchmarks=["crc32", "fdct"], x_limits=[1.1, 1.5])
    cells = spec.cells()
    assert len(cells) == spec.size == 4
    assert [(c.spec.benchmark, c.spec.x_limit) for c in cells] == [
        ("crc32", 1.1), ("crc32", 1.5), ("fdct", 1.1), ("fdct", 1.5)]


def test_sweep_parallel_matches_sequential_bitwise(tmp_path):
    spec = SweepSpec(benchmarks=("crc32", "fdct"), x_limits=(1.1, 1.5),
                     flash_ram_ratios=(None, 2.5))
    sequential = run_sweep(spec, engine=fresh_engine(), max_workers=1)
    parallel = run_sweep(spec, engine=fresh_engine(), max_workers=2)

    store = ResultStore(tmp_path)
    store.save("sequential", sequential.records, meta=sequential.meta())
    store.save("parallel", parallel.records, meta=parallel.meta())
    assert records_equal(store.load("sequential"), store.load("parallel"))
    assert store.load_meta("sequential")["cells"] == 8


def test_sweep_ratio_axis_changes_energy_but_not_cycles():
    spec = SweepSpec(benchmarks=("crc32",), x_limits=(1.5,),
                     flash_ram_ratios=(None, 2.5))
    result = run_sweep(spec, engine=fresh_engine(), max_workers=1)
    calibrated, scaled = result.records
    # Same program, same placement semantics: cycle counts agree; a more
    # expensive flash makes the optimization save relatively more energy.
    assert calibrated["cycles"] == scaled["cycles"]
    assert scaled["energy_change"] < calibrated["energy_change"] < 0


# --------------------------------------------------------------------------- #
# Pareto extraction
# --------------------------------------------------------------------------- #
def test_dominates_semantics():
    assert dominates((1.0, 1.0), (2.0, 1.0))
    assert not dominates((2.0, 1.0), (1.0, 1.0))
    assert not dominates((1.0, 1.0), (1.0, 1.0))       # equal: no domination
    assert not dominates((0.0, 2.0), (1.0, 1.0))       # trade-off


def test_pareto_front_on_hand_built_points():
    points = [
        {"benchmark": "b", "energy_j": 1.0, "time_ratio": 1.5, "ram_bytes": 100},
        {"benchmark": "b", "energy_j": 2.0, "time_ratio": 1.1, "ram_bytes": 50},
        {"benchmark": "b", "energy_j": 2.5, "time_ratio": 1.2, "ram_bytes": 60},  # dominated by #2
        {"benchmark": "b", "energy_j": 0.9, "time_ratio": 1.6, "ram_bytes": 100},
        {"benchmark": "b", "energy_j": 1.0, "time_ratio": 1.5, "ram_bytes": 100},  # duplicate of #1
    ]
    front = pareto_records(points)
    ids = [next(i for i, q in enumerate(points) if q is p) for p in front]
    assert ids == [0, 1, 3, 4]

    marked = mark_pareto(points)
    assert [row["pareto"] for row in marked] == [True, True, False, True, True]


def test_mark_pareto_groups_by_benchmark():
    points = [
        {"benchmark": "a", "energy_j": 1.0, "time_ratio": 1.0, "ram_bytes": 10},
        {"benchmark": "b", "energy_j": 2.0, "time_ratio": 2.0, "ram_bytes": 20},
    ]
    # Each benchmark's cloud is its own trade-off space, so a point that
    # would be dominated globally is still its group's frontier.
    assert all(row["pareto"] for row in mark_pareto(points))


def test_pareto_front_preserves_input_order_generic_key():
    values = [(3, 1), (1, 3), (2, 2), (2, 3)]
    front = pareto_front(values, key=lambda v: v)
    assert front == [(3, 1), (1, 3), (2, 2)]


# --------------------------------------------------------------------------- #
# Instrumented-set neighbourhood invariant (basis of the incremental update)
# --------------------------------------------------------------------------- #
def test_toggle_only_affects_block_and_predecessors():
    params = {
        "f:a": BlockParameters("f:a", "f", "a", 10, 5, 1.0, 4, 4, 0, ["f:b"]),
        "f:b": BlockParameters("f:b", "f", "b", 10, 5, 1.0, 4, 4, 0, ["f:c"]),
        "f:c": BlockParameters("f:c", "f", "c", 10, 5, 1.0, 4, 4, 0, ["f:c"]),
    }
    model = PlacementCostModel(params, 2.0, 1.0)
    placement = IncrementalPlacement(model)
    placement.toggle("f:b")
    assert placement.ram == {"f:b"}
    assert placement.instrumented == model.instrumented_set({"f:b"}) == {"f:a", "f:b"}
    placement.toggle("f:c")  # self-loop successor must not confuse the update
    assert placement.instrumented == model.instrumented_set({"f:b", "f:c"})
    placement.toggle("f:b")
    placement.toggle("f:c")
    assert placement.ram == set()
    assert placement.instrumented == set()
    assert placement.ram_bytes == 0
