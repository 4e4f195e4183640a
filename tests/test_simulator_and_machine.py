"""Simulator, memory system, energy model, layout and frame tests."""

import pytest

from repro.codegen import CompileOptions, compile_source
from repro.isa.instructions import InstrClass
from repro.machine.frame import FrameLayout
from repro.machine.program import FLASH_REGION, RAM_REGION
from repro.sim import EnergyModel, MemoryError_, MemorySystem, Simulator
from repro.sim.energy import DEFAULT_POWER_TABLE
from tests.conftest import compile_and_run


# --------------------------------------------------------------------------- #
# Memory system
# --------------------------------------------------------------------------- #
def test_memory_word_roundtrip_and_regions():
    memory = MemorySystem(FLASH_REGION, RAM_REGION)
    address = RAM_REGION.origin + 16
    memory.write_word(address, 0xDEADBEEF)
    assert memory.read_word(address) == 0xDEADBEEF
    assert memory.read_byte(address) == 0xEF
    assert memory.region_of(address) == "ram"
    assert memory.region_of(FLASH_REGION.origin) == "flash"
    assert memory.region_of(0x1000) is None


def test_memory_rejects_flash_writes_and_unmapped_access():
    memory = MemorySystem(FLASH_REGION, RAM_REGION)
    with pytest.raises(MemoryError_):
        memory.write_word(FLASH_REGION.origin, 1)
    with pytest.raises(MemoryError_):
        memory.read_word(0x12345678)
    # Initialisation (startup data load) may write flash.
    memory.write_word(FLASH_REGION.origin, 1, initializing=True)


# --------------------------------------------------------------------------- #
# Energy model
# --------------------------------------------------------------------------- #
def test_ram_power_lower_than_flash_for_every_class():
    table = DEFAULT_POWER_TABLE
    for instr_class in InstrClass:
        assert table.power_mw("ram", instr_class) < table.power_mw("flash", instr_class)


def test_flash_data_load_from_ram_stays_expensive():
    table = DEFAULT_POWER_TABLE
    cheap = table.power_mw("ram", InstrClass.LOAD, data_region="ram")
    expensive = table.power_mw("ram", InstrClass.LOAD, data_region="flash")
    assert expensive > cheap
    assert expensive > 0.9 * table.power_mw("flash", InstrClass.LOAD)


def test_energy_model_coefficients_ordering():
    model = EnergyModel()
    assert model.e_ram < model.e_flash
    assert model.energy_j(2, "flash", InstrClass.ALU) == pytest.approx(
        2 * model.cycle_time_s * DEFAULT_POWER_TABLE.power_mw("flash", InstrClass.ALU) * 1e-3)


# --------------------------------------------------------------------------- #
# Frame layout
# --------------------------------------------------------------------------- #
def test_frame_layout_assigns_aligned_offsets():
    layout = FrameLayout()
    first = layout.add("a", 4)
    second = layout.add("b", 10)
    third = layout.add("c", 4)
    assert first == 0
    assert second == 4
    assert third == 16  # 10 rounded up to 12, aligned
    assert layout.aligned_size(8) % 8 == 0


# --------------------------------------------------------------------------- #
# Program layout
# --------------------------------------------------------------------------- #
def test_layout_places_code_in_flash_and_data_in_ram():
    source = """
        const int table[4] = {1, 2, 3, 4};
        int counters[4];
        int main(void) { counters[0] = table[0]; return counters[0]; }
    """
    program = compile_source(source, CompileOptions.for_level("O2"))
    assert FLASH_REGION.contains(program.global_addresses["table"])
    assert RAM_REGION.contains(program.global_addresses["counters"])
    for block in program.iter_blocks():
        assert FLASH_REGION.contains(block.address)
    assert program.ram_code_size() == 0


def test_layout_reports_sizes():
    program = compile_source("int main(void) { return 1; }",
                             CompileOptions.for_level("O2"))
    assert program.code_size() > 0
    assert program.mutable_data_size() == 0


# --------------------------------------------------------------------------- #
# Simulator behaviour
# --------------------------------------------------------------------------- #
def test_simulator_profile_counts_loop_iterations():
    source = """
        int main(void) {
            int s = 0;
            for (int i = 0; i < 25; ++i) { s += i; }
            return s;
        }
    """
    result = compile_and_run(source, "O2")
    assert result.return_value == 300
    hottest_key, hottest_count = result.profile.hottest(1)[0]
    assert hottest_count >= 25
    assert result.profile.total_executions() >= 25


def test_simulator_detects_infinite_loops():
    from repro.sim import SimulationError
    program = compile_source("int main(void) { while (1) { } return 0; }",
                             CompileOptions.for_level("O0"))
    simulator = Simulator(program, max_instructions=10_000)
    with pytest.raises(SimulationError):
        simulator.run()


def test_simulator_entry_arguments():
    program = compile_source("int triple(int x) { return 3 * x; } "
                             "int main(void) { return triple(2); }",
                             CompileOptions.for_level("O2"))
    result = Simulator(program).run(entry="triple", args=[14])
    assert result.signed_return_value == 42


def test_simulator_rejects_more_arguments_than_argument_registers():
    from repro.sim import SimulationError
    program = compile_source(
        "int add4(int a, int b, int c, int d) { return a + b + c + d; } "
        "int main(void) { return add4(1, 2, 3, 4); }",
        CompileOptions.for_level("O2"))
    result = Simulator(program).run(entry="add4", args=[1, 2, 3, 4])
    assert result.return_value == 10
    # A fifth value would land in r4, which no callee reads as a parameter.
    with pytest.raises(SimulationError, match="argument registers"):
        Simulator(program).run(entry="add4", args=[1, 2, 3, 4, 100])


def test_simulator_unknown_entry_raises():
    from repro.sim import SimulationError
    program = compile_source("int main(void) { return 0; }",
                             CompileOptions.for_level("O2"))
    with pytest.raises(SimulationError):
        Simulator(program).run(entry="nope")


def test_cycles_by_section_accounts_everything():
    source = "int main(void) { int s = 0; for (int i = 0; i < 10; ++i) s += i; return s; }"
    result = compile_and_run(source, "O2")
    assert result.cycles_by_section["flash"] == result.cycles
    assert result.cycles_by_section["ram"] == 0
    assert result.time_s == pytest.approx(result.cycles / 24_000_000)
    assert 5.0 < result.average_power_mw < 20.0


def test_negative_return_values_are_sign_extended():
    assert compile_and_run("int main(void) { return -7; }", "O2").signed_return_value == -7
