"""Pipelined/cached timing model: an alternative cycle accounting scheme.

The default (**flat**) timing model charges every instruction its Cortex-M3
table cost (:mod:`repro.isa.timing`) regardless of which memory the
instruction stream comes from: flash wait-states are folded into the table
and the only memory-dependent term is the RAM-bus contention stall.  That is
the model the paper's evaluation uses, and every stored sweep record was
produced under it.

This module adds a second, selectable model — ``timing_model="pipelined"`` —
with classic 3-stage fetch/decode/execute accounting:

* **Flash fetch stalls.**  Fetching from flash costs
  :data:`~repro.isa.timing.FLASH_WAIT_STATES` extra cycles unless the fetch
  hides behind a multi-cycle instruction already occupying the execute
  stage: after an instruction that spent ``c`` cycles executing, ``c - 1``
  cycles of the next fetch are overlapped.  RAM fetches are single-cycle.
* **Branch flushes.**  Taken control transfers flush the fetch overlap
  window (and the hazard window below); the refill cycles themselves are
  already part of the table costs (``BRANCH_TAKEN_PENALTY``).
* **Load-use hazards.**  An instruction reading the destination register of
  the immediately preceding load stalls
  :data:`~repro.isa.timing.LOAD_USE_STALL` cycle(s) for the missing
  writeback.
* **Optional instruction cache** (``timing_model="pipelined+icache:LxB"``):
  a direct-mapped cache of ``L`` lines of ``B`` bytes in front of flash.
  A hit fetches in one cycle **and is charged at RAM fetch power** (the
  cache is SRAM); a miss refills the whole line from flash —
  ``FLASH_WAIT_STATES`` per word — before the stall/overlap rule above
  applies.

Everything stays integer event counts reduced by
:meth:`~repro.sim.cpu.SimulationResult.priced`, so pipelined runs are
exactly as bitwise-deterministic as flat ones.  The **bitwise-determinism contract** of
the flat model is untouched: ``timing_model="flat"`` takes the pre-existing
execution paths verbatim and produces byte-identical results and stores.
Pipelined runs side-exit to their own generic decode-once loop
(:func:`run_pipelined`) and never enter the superblock fast path, whose
batched static cycle counts are precomputed under flat accounting.

:class:`TimingSpec` is the parsed form of a ``timing_model`` string; it also
provides the *static* per-block cost estimates (flash-stall and hazard
cycles) the placement cost model folds into ``C_b``, and the blended
``e_flash`` coefficient an icache implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.isa.conditions import cond_holds
from repro.isa.instructions import InstrClass
from repro.isa.timing import (
    FLASH_WAIT_STATES,
    LOAD_USE_STALL,
    RAM_CONTENTION_STALL,
    cycles_for,
    load_dest,
    registers_read,
)
from repro.machine.blocks import MachineBlock
from repro.sim.decode import SimulationError, predecode
from repro.sim.profiler import BlockProfile

#: The timing-model axis values the CLI offers.  Parameterized icache
#: geometries (``pipelined+icache:32x8``) are accepted everywhere a
#: timing-model string is, they just are not enumerated here.
TIMING_MODELS: Tuple[str, ...] = ("flat", "pipelined", "pipelined+icache")

#: Default direct-mapped instruction-cache geometry (256 bytes: 16 x 16).
DEFAULT_ICACHE_LINES = 16
DEFAULT_ICACHE_LINE_BYTES = 16

#: Hit rate the *static* cost model assumes for an instruction cache when
#: estimating per-block flash stalls (the dynamic simulation models the
#: cache exactly; this only steers the placement solver).
ICACHE_ASSUMED_HIT_RATE = 0.875

_ALU_VALUE = InstrClass.ALU.value


@dataclass(frozen=True)
class TimingSpec:
    """Parsed form of a ``timing_model`` string.

    ``kind`` is ``"flat"`` or ``"pipelined"``; ``icache_lines == 0`` means no
    instruction cache.  Construct via :meth:`parse`:

    >>> TimingSpec.parse("flat").is_flat
    True
    >>> TimingSpec.parse("pipelined+icache").name
    'pipelined+icache:16x16'
    >>> TimingSpec.parse("pipelined+icache:32x8").miss_penalty
    2
    """

    kind: str = "flat"
    icache_lines: int = 0
    icache_line_bytes: int = DEFAULT_ICACHE_LINE_BYTES

    @classmethod
    def parse(cls, value: Union[str, "TimingSpec"]) -> "TimingSpec":
        """Parse a ``timing_model`` string (idempotent on specs).

        Accepted forms: ``"flat"``, ``"pipelined"``, ``"pipelined+icache"``
        (default 16x16-byte geometry) and ``"pipelined+icache:LxB"`` with
        ``L`` direct-mapped lines of ``B`` bytes (``B`` a power of two >= 4).
        """
        if isinstance(value, TimingSpec):
            return value
        text = str(value).strip()
        if text == "flat":
            return cls()
        if text == "pipelined":
            return cls(kind="pipelined")
        if text == "pipelined+icache":
            return cls(kind="pipelined", icache_lines=DEFAULT_ICACHE_LINES,
                       icache_line_bytes=DEFAULT_ICACHE_LINE_BYTES)
        if text.startswith("pipelined+icache:"):
            geometry = text.split(":", 1)[1]
            lines_text, sep, bytes_text = geometry.partition("x")
            if sep:
                try:
                    lines = int(lines_text)
                    line_bytes = int(bytes_text)
                except ValueError:
                    lines = line_bytes = 0
                if (lines >= 1 and line_bytes >= 4
                        and line_bytes & (line_bytes - 1) == 0):
                    return cls(kind="pipelined", icache_lines=lines,
                               icache_line_bytes=line_bytes)
        raise ValueError(
            f"unknown timing model {value!r}; expected 'flat', 'pipelined', "
            f"'pipelined+icache' or 'pipelined+icache:LxB' "
            f"(B a power of two >= 4)")

    @property
    def name(self) -> str:
        """Canonical string form (``parse(spec.name) == spec``)."""
        if self.kind == "flat":
            return "flat"
        if not self.icache_lines:
            return "pipelined"
        return (f"pipelined+icache:{self.icache_lines}"
                f"x{self.icache_line_bytes}")

    @property
    def is_flat(self) -> bool:
        return self.kind == "flat"

    @property
    def has_icache(self) -> bool:
        return self.kind == "pipelined" and self.icache_lines > 0

    @property
    def miss_penalty(self) -> int:
        """Extra cycles to refill one icache line from flash on a miss.

        Zero without an icache — the uncached pipeline pays
        :data:`~repro.isa.timing.FLASH_WAIT_STATES` per fetch instead.
        """
        if not self.has_icache:
            return 0
        return FLASH_WAIT_STATES * (self.icache_line_bytes // 4)

    # ------------------------------------------------------------------ #
    # Static estimates for the placement cost model
    # ------------------------------------------------------------------ #
    def effective_e_flash(self, energy_model) -> float:
        """The per-cycle flash-fetch energy coefficient this model implies.

        With an instruction cache most flash fetches are served from cache
        SRAM, so the cost model's ``E_flash`` blends toward ``E_ram`` at the
        assumed hit rate.  Flat (and cache-less pipelined) return the energy
        model's ``e_flash`` unchanged — the exact same float.
        """
        if not self.has_icache:
            return energy_model.e_flash
        hit = ICACHE_ASSUMED_HIT_RATE
        return hit * energy_model.e_ram + (1.0 - hit) * energy_model.e_flash

    def static_block_costs(self, block: MachineBlock) -> Tuple[int, float]:
        """``(hazard_cycles, flash_stall_cycles)`` estimates for one block.

        *hazard_cycles* counts load-use pairs (a memory-independent pipeline
        property, added to ``C_b``); *flash_stall_cycles* estimates the extra
        fetch cycles one execution pays **iff the block stays in flash** —
        the term a RAM placement removes.  Without an icache the estimate
        runs the same overlap recurrence as the dynamic loop over the
        taken-path costs; with one it charges the expected miss cost
        ``(1 - hit_rate) * miss_penalty`` per instruction.
        """
        if self.kind != "pipelined":
            return 0, 0.0
        hazard = 0
        stall = 0
        overlap = 0
        previous_load_dst = -1
        for instr in block.instructions:
            if previous_load_dst >= 0 and previous_load_dst in registers_read(instr):
                hazard += LOAD_USE_STALL
            if not self.has_icache:
                pending = FLASH_WAIT_STATES - overlap
                if pending > 0:
                    stall += pending
            cycles = cycles_for(instr, taken=True)
            overlap = cycles - 1
            previous_load_dst = load_dest(instr)
        if self.has_icache:
            miss_rate = 1.0 - ICACHE_ASSUMED_HIT_RATE
            return hazard, len(block.instructions) * miss_rate * self.miss_penalty
        return hazard, float(stall)


# --------------------------------------------------------------------------- #
# The pipelined execution loop
# --------------------------------------------------------------------------- #
def run_pipelined(sim, entry: str):
    """Execute *sim*'s program under the pipelined timing model.

    This is the generic decode-once loop of
    :meth:`Simulator._run_superblocked`, without superblocks, extended with
    the fetch-overlap window, the direct-mapped icache and the load-use
    hazard described in the module docstring.  It is the **only** execution
    path for pipelined runs: superblocks batch statically-precomputed flat
    cycles, so pipelined simulations side-exit to this generic loop instead.
    Energy stays integer event counts keyed
    ``(cycles, fetch_region, instr_class, data_region)`` and is reduced once
    by :meth:`SimulationResult.priced`, so results are bitwise deterministic.
    """
    timing: TimingSpec = sim.timing
    program = sim.program
    functions = program.functions
    max_instructions = sim.max_instructions

    profile = BlockProfile()
    total_cycles = 0
    total_instructions = 0
    energy_counts = {}
    counts_get = energy_counts.get
    cycles_by_section = {"flash": 0, "ram": 0}

    lines = timing.icache_lines
    line_shift = timing.icache_line_bytes.bit_length() - 1
    miss_penalty = timing.miss_penalty
    tags = [-1] * lines if lines else None
    # Icache telemetry: plain locals in the fetch stage (hot), published to
    # the hub once at finish.
    icache_hits = 0
    icache_misses = 0
    #: (function, block) -> (layout generation, per-instruction line ids).
    line_memo = {}

    def block_line_ids(block):
        key = (block.function_name, block.name)
        cached = line_memo.get(key)
        if cached is not None and cached[0] == program.layout_generation:
            return cached[1]
        if block.address is None:
            raise SimulationError(
                f"block {block.function_name}/{block.name} has no address "
                f"(layout not run?)")
        base = block.address
        ids = [(base + offset) >> line_shift
               for offset in block.instruction_offsets()]
        line_memo[key] = (program.layout_generation, ids)
        return ids

    function_name = entry
    block = functions[entry].entry_block
    decoded = predecode(program, block)
    records = decoded.records
    fetch_region = decoded.fetch_region
    fetch_is_ram = decoded.fetch_is_ram
    line_ids = (block_line_ids(block)
                if lines and not fetch_is_ram else None)
    index = 0
    pending_cond = None
    block_cycle_start = 0
    current_block_key = program.block_key(block)

    #: Fetch cycles the previous instruction's execute time can hide.
    overlap = 0
    #: Destination register of an immediately preceding load, else -1.
    load_dst = -1

    while True:
        if total_instructions > max_instructions:
            raise SimulationError(
                f"instruction limit exceeded ({sim.max_instructions}); "
                f"likely an infinite loop in {function_name}")

        if index >= len(records):
            # Fall through: no branch, the pipeline keeps streaming, so the
            # overlap window and the hazard register survive the boundary.
            profile.record(current_block_key, total_cycles - block_cycle_start)
            next_name = block.fallthrough
            if next_name is None:
                raise SimulationError(
                    f"fell off the end of {function_name}/{block.name}")
            block = functions[function_name].blocks[next_name]
            decoded = predecode(program, block)
            records = decoded.records
            fetch_region = decoded.fetch_region
            fetch_is_ram = decoded.fetch_is_ram
            line_ids = (block_line_ids(block)
                        if lines and not fetch_is_ram else None)
            index = 0
            block_cycle_start = total_cycles
            current_block_key = program.block_key(block)
            continue

        record = records[index]

        # --- fetch stage ---------------------------------------------- #
        stall = 0
        region = fetch_region
        if not fetch_is_ram:
            if lines:
                line = line_ids[index]
                slot = line % lines
                if tags[slot] == line:
                    # Hit: single-cycle fetch from cache SRAM, charged at
                    # RAM fetch power.
                    region = "ram"
                    icache_hits += 1
                else:
                    tags[slot] = line
                    icache_misses += 1
                    stall = miss_penalty - overlap
                    if stall < 0:
                        stall = 0
            else:
                stall = FLASH_WAIT_STATES - overlap
                if stall < 0:
                    stall = 0

        # --- predication (it blocks) ----------------------------------- #
        if record.is_it:
            pending_cond = record.cond
            cycles = 1 + stall
            total_cycles += cycles
            total_instructions += 1
            cycles_by_section[region] += cycles
            key = (cycles, region, _ALU_VALUE, None)
            energy_counts[key] = counts_get(key, 0) + 1
            overlap = cycles - 1
            load_dst = -1
            index += 1
            continue

        if record.predicated:
            condition = record.cond if record.cond is not None else pending_cond
            if not cond_holds(condition, sim.flag_n, sim.flag_z,
                              sim.flag_c, sim.flag_v):
                cycles = 1 + stall
                total_cycles += cycles
                total_instructions += 1
                cycles_by_section[region] += cycles
                key = (cycles, region, _ALU_VALUE, None)
                energy_counts[key] = counts_get(key, 0) + 1
                overlap = cycles - 1
                load_dst = -1
                index += 1
                continue

        # --- execute ---------------------------------------------------- #
        data_region, transfer = record.run(sim)

        if record.conditional and transfer is None:
            cycles = record.cycles_not_taken
        else:
            cycles = record.cycles_taken

        # Load-use hazard: reading the previous load's destination.
        if load_dst >= 0 and load_dst in record.reads:
            cycles += LOAD_USE_STALL

        # RAM bus contention: executing from RAM while touching RAM data.
        if fetch_is_ram and data_region == "ram" and record.contention:
            cycles += RAM_CONTENTION_STALL

        cycles += stall
        total_cycles += cycles
        total_instructions += 1
        cycles_by_section[region] += cycles
        key = (cycles, region, record.klass_value, data_region)
        energy_counts[key] = counts_get(key, 0) + 1

        if transfer is None:
            overlap = cycles - 1
            load_dst = record.load_dst
            index += 1
            continue

        # Taken control transfer: the pipeline flushes — both the fetch
        # overlap window and the load-use hazard register reset.
        overlap = 0
        load_dst = -1

        kind, payload = transfer
        profile.record(current_block_key, total_cycles - block_cycle_start)
        block_cycle_start = total_cycles

        if kind == "exit":
            if lines:
                from repro.telemetry import get_telemetry
                hub = get_telemetry()
                if hub.enabled:
                    hub.add("sim.icache.hits", icache_hits)
                    hub.add("sim.icache.misses", icache_misses)
            return sim._finish(total_cycles, total_instructions,
                               energy_counts, profile, cycles_by_section)
        if kind == "block":
            target_function, target_block = payload
            function_name = target_function
            block = functions[target_function].blocks[target_block]
            index = 0
        elif kind == "call":
            callee, return_site = payload
            sim.registers[14] = sim._intern_return_site(return_site)
            function_name = callee
            block = functions[callee].entry_block
            index = 0
        elif kind == "return":
            site_function, site_block, site_index = payload
            function_name = site_function
            block = functions[site_function].blocks[site_block]
            index = site_index
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown transfer kind {kind}")
        decoded = predecode(program, block)
        records = decoded.records
        fetch_region = decoded.fetch_region
        fetch_is_ram = decoded.fetch_is_ram
        line_ids = (block_line_ids(block)
                    if lines and not fetch_is_ram else None)
        current_block_key = program.block_key(block)
