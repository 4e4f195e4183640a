"""Tests for trace-compiled superblocks and the persistent disk cache.

Superblocks are a pure performance feature: every result a
:class:`~repro.sim.Simulator` produces with them must be *bitwise* identical
to the interpreted oracle, whether the superblocks are compiled during the
run or reused from an earlier one.  The disk cache likewise must be
invisible except for speed — corrupt, truncated or stale entries are
rejected loudly and recompiled, never deserialised into wrong programs.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings

import pytest

from repro.beebs import BENCHMARK_NAMES, get_benchmark
from repro.codegen import CompileOptions, compile_source
from repro.engine.cache import (
    CACHE_CODE_VERSION,
    DISK_FORMAT_VERSION,
    CacheIntegrityWarning,
    ProgramCache,
    program_key,
)
from repro.isa.registers import Reg, _canonical_reg
from repro.machine.program import MachineProgram
from repro.placement import extract_parameters
from repro.sim import Simulator
from repro.transform import apply_placement

#: Every BEEBS kernel at both Figure 5 optimization levels.
PARITY_GRID = [(name, level) for name in BENCHMARK_NAMES
               for level in ("O2", "Os")]

TINY_SOURCE = "int main(void) { int x = 40; return x + 2; }"


def compile_benchmark(name: str, level: str) -> MachineProgram:
    benchmark = get_benchmark(name)
    options = CompileOptions.for_level(level, program_name=benchmark.name)
    return compile_source(benchmark.source, options)


def result_fields(result):
    """Every observable of a simulation, for bitwise comparison."""
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


# --------------------------------------------------------------------------- #
# Superblock parity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name,level", PARITY_GRID)
def test_superblock_three_way_bitwise_parity(name, level):
    program = compile_benchmark(name, level)
    interpreted = Simulator(program, decode_once=False).run()
    cold = Simulator(program).run()          # compiles superblocks
    warm = Simulator(program).run()          # reuses them via the program

    superblocks, _hot = program.superblock_state()
    assert superblocks, f"{name}/{level}: no superblock ever formed"

    expected = result_fields(interpreted)
    assert result_fields(cold) == expected
    assert result_fields(warm) == expected


def test_superblocks_invalidated_by_relayout():
    """A placement transform mid-run must drop stale superblocks."""
    program = compile_benchmark("crc32", "O2")
    Simulator(program).run()
    stale, _ = program.superblock_state()
    assert stale, "warm run should have compiled superblocks"

    params = extract_parameters(program)
    eligible = [k for k, p in params.items() if p.eligible][:3]
    assert eligible, "crc32 should have placement-eligible blocks"
    apply_placement(program, eligible)

    fresh, _ = program.superblock_state()
    assert fresh is not stale and not fresh, (
        "re-layout must invalidate the superblock cache")

    after = Simulator(program).run()
    oracle = Simulator(program, decode_once=False).run()
    assert result_fields(after) == result_fields(oracle)

    # And against an independent program that got the same transform but
    # never ran superblocked before the re-layout.
    control = compile_benchmark("crc32", "O2")
    apply_placement(control, eligible)
    control_result = Simulator(control, decode_once=False).run()
    assert result_fields(after) == result_fields(control_result)


def test_superblock_state_survives_pickle_as_empty():
    """Pickling a program drops its superblocks; the copy re-warms itself."""
    program = compile_benchmark("fdct", "O2")
    expected = result_fields(Simulator(program).run())
    superblocks, _ = program.superblock_state()
    assert superblocks

    clone = pickle.loads(pickle.dumps(program))
    cloned_sbs, _ = clone.superblock_state()
    assert not cloned_sbs
    assert result_fields(Simulator(clone).run()) == expected


# --------------------------------------------------------------------------- #
# Disk cache round trips
# --------------------------------------------------------------------------- #
def benchmark_key(name="crc32", level="O2"):
    benchmark = get_benchmark(name)
    options = CompileOptions.for_level(level, program_name=benchmark.name)
    return benchmark.source, options


def entry_path(cache: ProgramCache, source, options) -> str:
    return cache._disk_path(program_key(source, options))


def test_disk_cache_shares_compiles_across_instances(tmp_path):
    source, options = benchmark_key()
    first = ProgramCache(cache_dir=str(tmp_path))
    program = first.get(source, options)
    assert first.stats.compiles == 1
    assert first.stats.disk_misses == 1
    assert os.path.exists(entry_path(first, source, options))

    # A fresh instance (≈ a new worker process) hits disk, never compiles.
    second = ProgramCache(cache_dir=str(tmp_path))
    loaded = second.get(source, options)
    assert second.stats.disk_hits == 1
    assert second.stats.compiles == 0

    assert (result_fields(Simulator(loaded).run())
            == result_fields(Simulator(program).run()))

    # Unpickled programs must use the canonical register singletons — the
    # simulator does `reg is PC`-style identity checks.
    regs = [operand
            for block in loaded.iter_blocks()
            for instr in block.instructions
            for operand in instr.operands
            if isinstance(operand, Reg) and not operand.virtual]
    assert regs
    for reg in regs:
        assert reg is _canonical_reg(reg.index)


@pytest.mark.parametrize("damage", ["garbage", "truncate", "empty"])
def test_corrupt_disk_entries_rejected_and_recompiled(tmp_path, damage):
    source, options = benchmark_key("fdct", "Os")
    writer = ProgramCache(cache_dir=str(tmp_path))
    pristine = result_fields(Simulator(writer.get(source, options)).run())
    path = entry_path(writer, source, options)

    if damage == "garbage":
        with open(path, "wb") as handle:
            handle.write(b"\x00not a pickle at all\xff" * 16)
    elif damage == "truncate":
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(size // 2)
    else:
        open(path, "wb").close()

    reader = ProgramCache(cache_dir=str(tmp_path))
    with pytest.warns(CacheIntegrityWarning):
        recompiled = reader.get(source, options)
    assert reader.stats.compiles == 1
    assert reader.stats.disk_hits == 0
    assert result_fields(Simulator(recompiled).run()) == pristine

    # The recompile healed the entry: the next fresh instance hits disk
    # without a warning.
    healed = ProgramCache(cache_dir=str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheIntegrityWarning)
        healed.get(source, options)
    assert healed.stats.disk_hits == 1


@pytest.mark.parametrize("field,value", [
    ("format", DISK_FORMAT_VERSION + 1),
    ("code_version", CACHE_CODE_VERSION + "-stale"),
    ("key", ("someone-elses-digest", ())),
    ("program", "not a MachineProgram"),
])
def test_mismatched_disk_headers_rejected(tmp_path, field, value):
    """Hand-tampered (or hash-colliding) entries fail the header check."""
    source, options = benchmark_key()
    writer = ProgramCache(cache_dir=str(tmp_path))
    writer.get(source, options)
    path = entry_path(writer, source, options)

    with open(path, "rb") as handle:
        entry = pickle.load(handle)
    entry[field] = value
    with open(path, "wb") as handle:
        pickle.dump(entry, handle)

    reader = ProgramCache(cache_dir=str(tmp_path))
    with pytest.warns(CacheIntegrityWarning, match="stale or mismatched"):
        reader.get(source, options)
    assert reader.stats.compiles == 1
    assert reader.stats.disk_hits == 0


def test_concurrent_writers_and_readers_never_tear(tmp_path):
    """os.replace publication: readers see a whole entry or none at all."""
    options = CompileOptions.for_level("O0", program_name="tiny")
    cache = ProgramCache(cache_dir=str(tmp_path))
    program = cache.get(TINY_SOURCE, options)
    key = program_key(TINY_SOURCE, options)

    failures = []
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            cache._disk_store(key, program)

    def reader():
        for _ in range(200):
            loaded = cache._disk_load(key)
            if loaded is None or not isinstance(loaded, MachineProgram):
                failures.append(loaded)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        writers = [threading.Thread(target=writer) for _ in range(3)]
        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in writers + readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        for thread in writers:
            thread.join()

    integrity = [w for w in caught
                 if issubclass(w.category, CacheIntegrityWarning)]
    assert not failures, f"torn or missing reads: {failures[:3]}"
    assert not integrity, [str(w.message) for w in integrity]
    assert Simulator(cache._disk_load(key)).run().return_value == 42


def test_concurrent_cache_instances_one_compile_per_machine(tmp_path):
    """N fresh processes' worth of caches → 1 compile + N-1 disk hits."""
    source, options = benchmark_key("2dfir", "O2")
    ProgramCache(cache_dir=str(tmp_path)).get(source, options)
    hits = 0
    for _ in range(3):
        cache = ProgramCache(cache_dir=str(tmp_path))
        cache.get(source, options)
        assert cache.stats.compiles == 0
        hits += cache.stats.disk_hits
    assert hits == 3


def test_unwritable_cache_dir_degrades_to_memory(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the cache dir should be")
    source, options = benchmark_key()
    cache = ProgramCache(cache_dir=str(blocker))
    with pytest.warns(CacheIntegrityWarning, match="could not persist"):
        program = cache.get(source, options)
    assert cache.stats.compiles == 1
    # The memory tier still works.
    assert cache.get(source, options) is program
    assert cache.stats.hits == 1


# --------------------------------------------------------------------------- #
# Snapshot-based mutable copies
# --------------------------------------------------------------------------- #
def test_get_mutable_snapshot_copies_are_isolated(tmp_path):
    source, options = benchmark_key("crc32", "O2")
    cache = ProgramCache(cache_dir=str(tmp_path))
    pristine = cache.get(source, options)
    expected = result_fields(Simulator(pristine, decode_once=False).run())

    copy_a = cache.get_mutable(source, options)
    copy_b = cache.get_mutable(source, options)
    assert copy_a is not copy_b and copy_a is not pristine

    params = extract_parameters(copy_a)
    eligible = [k for k, p in params.items() if p.eligible][:2]
    apply_placement(copy_a, eligible)

    # Mutating one copy moves its blocks but leaves siblings pristine.
    moved = copy_a.find_block(eligible[0])
    assert moved.section == "ram"
    assert copy_b.find_block(eligible[0]).section != "ram"
    assert pristine.find_block(eligible[0]).section != "ram"
    assert result_fields(Simulator(copy_b, decode_once=False).run()) == expected
    assert (result_fields(Simulator(copy_a, decode_once=False).run())[0]
            == expected[0])
