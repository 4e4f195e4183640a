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
exactly as bitwise-deterministic as flat ones.  Both models run on the
simulator's one decode-once loop: under pipelined timing it runs the fetch
stage, the load-use hazard and the branch flush inline, and never forms
superblocks, whose batched static cycle counts are precomputed under flat
accounting.  Flat runs skip those stages, so the flat results and stores
stay byte-identical to the pre-axis reference.

:class:`TimingSpec` is the parsed form of a ``timing_model`` string; it also
provides the *static* per-block cost estimates (flash-stall and hazard
cycles) the placement cost model folds into ``C_b``, and the blended
``e_flash`` coefficient an icache implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.isa.timing import (
    FLASH_WAIT_STATES,
    LOAD_USE_STALL,
    cycles_for,
    load_dest,
    registers_read,
)
from repro.machine.blocks import MachineBlock

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
