"""Decode-once predecoding of machine blocks for the simulator hot loop.

The seed simulator re-classified every instruction on every execution: a long
``if/elif`` chain over opcodes, ``isinstance`` checks per operand, symbol
resolution per symbolic operand and a fresh cycle/energy computation per
instruction.  For loop-heavy kernels the same handful of blocks is executed
thousands of times, so all of that work is pure overhead.

This module performs the classification exactly once per block (the
fetch/decode/execute split of classic simulators): each
:class:`~repro.machine.blocks.MachineBlock` is lazily lowered to a list of
:class:`DecodedInstr` records whose ``run`` field is a closure with

* the handler pre-bound (no opcode dispatch at execution time),
* register operands reduced to plain indices and immediate/symbolic operands
  pre-resolved to concrete 32-bit values,
* the taken/not-taken cycle costs, the energy-model instruction class and the
  RAM-contention eligibility precomputed.

The records are cached on the block itself (``block._decode_cache``) stamped
with the program's ``layout_generation``, so any re-layout — in particular the
flash-RAM placement transformation, which moves blocks between sections and
rewrites terminators — transparently invalidates the cache.

Decoding is *observably* identical to the seed interpreter: decode-time errors
(unresolved symbols, unknown callees, inexecutable opcodes) are wrapped into
records that raise the same :class:`SimulationError` only if and when the
faulty instruction is actually executed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.conditions import Cond, cond_holds
from repro.isa.instructions import Imm, InstrClass, MachineInstr, Opcode, RegList, Sym
from repro.isa.registers import PC, Reg
from repro.isa.timing import cycles_for, instr_class, load_dest, registers_read
from repro.machine.blocks import MachineBlock
from repro.machine.program import MachineProgram

_MASK = 0xFFFFFFFF

#: Shared "no data access, no control transfer" result tuple.
NO_EFFECT: Tuple[None, None] = (None, None)
_RAM_EFFECT: Tuple[str, None] = ("ram", None)

#: Opcodes eligible for the RAM-bus contention stall (the paper's ``L_b``).
_CONTENTION_OPS = frozenset({Opcode.LDR, Opcode.LDRB, Opcode.STR,
                             Opcode.STRB, Opcode.LDR_LIT})

#: Opcodes whose cycle cost depends on whether the branch was taken.
_CONDITIONAL_OPS = frozenset({Opcode.BCC, Opcode.CBZ, Opcode.CBNZ})


class SimulationError(Exception):
    """Raised on illegal execution (unknown symbol, runaway loop, bad jump)."""


def _signed(value: int) -> int:
    value &= _MASK
    return value - (1 << 32) if value & 0x80000000 else value


def resolve_symbol(program: MachineProgram, name: str, current_function: str) -> int:
    """Resolve a symbolic operand to an address (global, function or block)."""
    if name in program.global_addresses:
        return program.global_addresses[name]
    if name in program.functions:
        entry = program.functions[name].entry_block
        if entry.address is None:
            raise SimulationError(f"function {name} has no address")
        return entry.address
    function = program.functions[current_function]
    if name in function.blocks:
        block = function.blocks[name]
        if block.address is None:
            raise SimulationError(f"block {name} has no address")
        return block.address
    raise SimulationError(f"unresolved symbol {name!r} in {current_function}")


class DecodedInstr:
    """One predecoded instruction: a pre-bound handler plus static metadata.

    ``run(sim)`` performs the instruction's effect on the simulator state and
    returns ``(data_region, transfer)``, mirroring the dynamic part of the
    seed interpreter's ``_execute`` result.
    """

    __slots__ = ("run", "cycles_taken", "cycles_not_taken", "klass",
                 "klass_value", "contention", "conditional", "is_it",
                 "predicated", "cond", "instr", "load_dst", "reads")

    def __init__(self, instr: MachineInstr):
        self.instr = instr
        self.cycles_taken = cycles_for(instr, taken=True)
        self.cycles_not_taken = cycles_for(instr, taken=False)
        self.klass = instr_class(instr)
        # Load-use hazard metadata, read by the decode-once loop's hazard
        # stage under pipelined timing (repro.sim.pipeline) only.
        self.load_dst = load_dest(instr)
        self.reads = registers_read(instr)
        # Plain-string mirror of ``klass`` for energy-count keys: strings
        # hash at C speed (and cache it), Enum.__hash__ is a Python call.
        self.klass_value = self.klass.value
        self.contention = instr.opcode in _CONTENTION_OPS
        self.conditional = instr.opcode in _CONDITIONAL_OPS
        self.is_it = instr.opcode is Opcode.IT
        self.predicated = instr.predicated
        self.cond = instr.cond
        self.run = None  # type: ignore[assignment]


class DecodedBlock:
    """All predecoded records of one block plus its static fetch region.

    ``chainable`` marks blocks eligible for superblock formation
    (:mod:`repro.sim.superblock`): no predication (``it`` blocks carry
    cross-instruction condition state the straight-line fast path does not
    model) and no deferred decode errors (a faulty instruction must keep its
    execute-time error semantics, so the block stays on the generic path).
    """

    __slots__ = ("records", "fetch_region", "fetch_is_ram", "chainable")

    def __init__(self, records: List[DecodedInstr], fetch_region: str,
                 chainable: bool = False):
        self.records = records
        self.fetch_region = fetch_region
        self.fetch_is_ram = fetch_region == "ram"
        self.chainable = chainable


# --------------------------------------------------------------------------- #
# Operand lowering
# --------------------------------------------------------------------------- #
def _operand_cv(operand, program: MachineProgram,
                function_name: str) -> Tuple[Optional[int], Optional[int]]:
    """Lower an operand to ``(const_value, reg_index)``; exactly one is set."""
    if isinstance(operand, Reg):
        return None, operand.index
    if isinstance(operand, Imm):
        return operand.value & _MASK, None
    if isinstance(operand, Sym):
        return (resolve_symbol(program, operand.name, function_name)
                + operand.addend) & _MASK, None
    raise SimulationError(f"cannot evaluate operand {operand!r}")


# --------------------------------------------------------------------------- #
# Handler builders (one closure per instruction, bound at decode time)
# --------------------------------------------------------------------------- #
def _alu_add(a, b):
    return a + b


def _alu_sub(a, b):
    return a - b


def _alu_rsb(a, b):
    return b - a


def _alu_mul(a, b):
    return a * b


def _alu_sdiv(a, b):
    sa, sb = _signed(a), _signed(b)
    return 0 if sb == 0 else int(sa / sb)


def _alu_udiv(a, b):
    return 0 if b == 0 else a // b


def _alu_and(a, b):
    return a & b


def _alu_orr(a, b):
    return a | b


def _alu_eor(a, b):
    return a ^ b


def _alu_lsl(a, b):
    return a << (b & 31)


def _alu_lsr(a, b):
    return a >> (b & 31)


def _alu_asr(a, b):
    return _signed(a) >> (b & 31)


_ALU_FUNCS = {
    Opcode.ADD: _alu_add,
    Opcode.SUB: _alu_sub,
    Opcode.RSB: _alu_rsb,
    Opcode.MUL: _alu_mul,
    Opcode.SDIV: _alu_sdiv,
    Opcode.UDIV: _alu_udiv,
    Opcode.AND: _alu_and,
    Opcode.ORR: _alu_orr,
    Opcode.EOR: _alu_eor,
    Opcode.LSL: _alu_lsl,
    Opcode.LSR: _alu_lsr,
    Opcode.ASR: _alu_asr,
}


def _make_alu(fn, dst: int, a_cv, b_cv):
    ac, ar = a_cv
    bc, br = b_cv
    if ar is None and br is None:
        value = fn(ac, bc) & _MASK

        def run(sim):
            sim.registers[dst] = value
            return NO_EFFECT
    elif br is None:
        def run(sim):
            regs = sim.registers
            regs[dst] = fn(regs[ar], bc) & _MASK
            return NO_EFFECT
    elif ar is None:
        def run(sim):
            regs = sim.registers
            regs[dst] = fn(ac, regs[br]) & _MASK
            return NO_EFFECT
    else:
        def run(sim):
            regs = sim.registers
            regs[dst] = fn(regs[ar], regs[br]) & _MASK
            return NO_EFFECT
    return run


def _make_mov(dst: int, src_cv, invert: bool):
    sc, sr = src_cv
    if sr is None:
        value = (~sc & _MASK) if invert else sc

        def run(sim):
            sim.registers[dst] = value
            return NO_EFFECT
    elif invert:
        def run(sim):
            regs = sim.registers
            regs[dst] = ~regs[sr] & _MASK
            return NO_EFFECT
    else:
        def run(sim):
            regs = sim.registers
            regs[dst] = regs[sr]
            return NO_EFFECT
    return run


def _make_ldr_lit(dst: int, src_cv, region: str):
    sc, sr = src_cv
    effect = (region, None)
    if sr is None:
        def run(sim):
            sim.registers[dst] = sc
            return effect
    else:
        def run(sim):
            regs = sim.registers
            regs[dst] = regs[sr]
            return effect
    return run


def _make_cmp(a_cv, b_cv):
    ac, ar = a_cv
    bc, br = b_cv

    def run(sim):
        regs = sim.registers
        a = regs[ar] if ar is not None else ac
        b = regs[br] if br is not None else bc
        result = (a - b) & _MASK
        sim.flag_n = bool(result & 0x80000000)
        sim.flag_z = result == 0
        sim.flag_c = a >= b
        sim.flag_v = ((a ^ b) & (a ^ result) & 0x80000000) != 0
        return NO_EFFECT
    return run


def _make_load(dst: int, base_cv, off_cv, byte: bool):
    bc, br = base_cv
    oc, orr = off_cv
    if byte:
        def run(sim):
            regs = sim.registers
            base = regs[br] if br is not None else bc
            offset = regs[orr] if orr is not None else oc
            value, region = sim.memory.read_byte_region(
                (base + offset) & _MASK)
            regs[dst] = value
            return region, None
    else:
        def run(sim):
            regs = sim.registers
            base = regs[br] if br is not None else bc
            offset = regs[orr] if orr is not None else oc
            value, region = sim.memory.read_word_region(
                (base + offset) & _MASK)
            regs[dst] = value
            return region, None
    return run


def _make_store(src: int, base_cv, off_cv, byte: bool):
    bc, br = base_cv
    oc, orr = off_cv
    if byte:
        def run(sim):
            regs = sim.registers
            base = regs[br] if br is not None else bc
            offset = regs[orr] if orr is not None else oc
            region = sim.memory.write_byte_region(
                (base + offset) & _MASK, regs[src])
            return region, None
    else:
        def run(sim):
            regs = sim.registers
            base = regs[br] if br is not None else bc
            offset = regs[orr] if orr is not None else oc
            region = sim.memory.write_word_region(
                (base + offset) & _MASK, regs[src])
            return region, None
    return run


def _make_push(indices: List[int]):
    count = len(indices)

    def run(sim):
        regs = sim.registers
        memory = sim.memory
        sp = regs[13] - 4 * count
        address = sp
        for idx in indices:
            memory.write_word(address, regs[idx])
            address += 4
        regs[13] = sp & _MASK
        return _RAM_EFFECT
    return run


def _make_pop(indices: List[int]):
    count = len(indices)

    def run(sim):
        regs = sim.registers
        memory = sim.memory
        sp = regs[13]
        jump_value = None
        position = 0
        for idx in indices:
            value = memory.read_word(sp + 4 * position)
            position += 1
            if idx == 15:
                jump_value = value
            else:
                regs[idx] = value
        regs[13] = (sp + 4 * count) & _MASK
        if jump_value is not None:
            return "ram", sim._transfer_to_address(jump_value)
        return _RAM_EFFECT
    return run


def _make_goto(transfer):
    effect = (None, transfer)

    def run(sim):
        return effect
    return run


def _make_bcc(cond: Cond, transfer):
    taken = (None, transfer)

    def run(sim):
        if cond_holds(cond, sim.flag_n, sim.flag_z, sim.flag_c, sim.flag_v):
            return taken
        return NO_EFFECT
    return run


def _make_cbz(reg: int, transfer, want_zero: bool):
    taken = (None, transfer)

    def run(sim):
        if (sim.registers[reg] == 0) == want_zero:
            return taken
        return NO_EFFECT
    return run


def _make_bx(reg: int):
    def run(sim):
        return None, sim._transfer_to_address(sim.registers[reg])
    return run


def _make_indirect_block(region: str, transfer):
    effect = (region, transfer)

    def run(sim):
        return effect
    return run


def _make_nop():
    def run(sim):
        return NO_EFFECT
    return run


def _make_deferred_error(exc: Exception):
    """Raise *exc* if (and only if) the faulty instruction is executed."""
    def run(sim):
        raise exc
    return run


# --------------------------------------------------------------------------- #
# Block decoding
# --------------------------------------------------------------------------- #
def _build_handler(program: MachineProgram, block: MachineBlock,
                   instr: MachineInstr, index: int):
    op = instr.opcode
    operands = instr.operands
    function_name = block.function_name
    fetch_data_region = "ram" if block.section == "ram" else "flash"

    if op in (Opcode.MOV, Opcode.MVN):
        return _make_mov(operands[0].index,
                         _operand_cv(operands[1], program, function_name),
                         invert=op is Opcode.MVN)

    if op is Opcode.LDR_LIT:
        return _make_ldr_lit(operands[0].index,
                             _operand_cv(operands[1], program, function_name),
                             fetch_data_region)

    alu = _ALU_FUNCS.get(op)
    if alu is not None:
        return _make_alu(alu, operands[0].index,
                         _operand_cv(operands[1], program, function_name),
                         _operand_cv(operands[2], program, function_name))

    if op is Opcode.CMP:
        return _make_cmp(_operand_cv(operands[0], program, function_name),
                         _operand_cv(operands[1], program, function_name))

    if op in (Opcode.LDR, Opcode.LDRB):
        return _make_load(operands[0].index,
                          _operand_cv(operands[1], program, function_name),
                          _operand_cv(operands[2], program, function_name),
                          byte=op is Opcode.LDRB)

    if op in (Opcode.STR, Opcode.STRB):
        return _make_store(operands[0].index,
                           _operand_cv(operands[1], program, function_name),
                           _operand_cv(operands[2], program, function_name),
                           byte=op is Opcode.STRB)

    if op is Opcode.PUSH:
        regs = sorted(operands[0].regs, key=lambda r: r.index)
        return _make_push([reg.index for reg in regs])

    if op is Opcode.POP:
        regs = sorted(operands[0].regs, key=lambda r: r.index)
        return _make_pop([reg.index for reg in regs])

    if op is Opcode.B:
        return _make_goto(("block", (function_name, operands[0].name)))

    if op is Opcode.BCC:
        return _make_bcc(instr.cond,
                         ("block", (function_name, operands[0].name)))

    if op in (Opcode.CBZ, Opcode.CBNZ):
        return _make_cbz(operands[0].index,
                         ("block", (function_name, operands[1].name)),
                         want_zero=op is Opcode.CBZ)

    if op is Opcode.BL:
        callee = operands[0].name
        if callee not in program.functions:
            raise SimulationError(f"call to unknown function {callee!r}")
        return_site = (function_name, block.name, index + 1)
        return _make_goto(("call", (callee, return_site)))

    if op is Opcode.BX:
        return _make_bx(operands[0].index)

    if op is Opcode.LDR_PC_LIT:
        return _make_indirect_block(
            fetch_data_region, ("block", (function_name, operands[0].name)))

    if op in (Opcode.NOP, Opcode.IT):
        return _make_nop()

    raise SimulationError(f"cannot execute {instr}")


def _build_block(program: MachineProgram, block: MachineBlock) -> DecodedBlock:
    records: List[DecodedInstr] = []
    chainable = True
    for index, instr in enumerate(block.instructions):
        record = DecodedInstr(instr)
        try:
            record.run = _build_handler(program, block, instr, index)
        except SimulationError as exc:
            # Match the seed interpreter: the error surfaces only if the
            # instruction is actually executed.
            record.run = _make_deferred_error(exc)
            chainable = False
        if record.is_it or record.predicated:
            chainable = False
        records.append(record)
    fetch_region = "ram" if block.section == "ram" else "flash"
    return DecodedBlock(records, fetch_region, chainable)


def predecode(program: MachineProgram, block: MachineBlock) -> DecodedBlock:
    """Return the decoded form of *block*, building and caching it on demand."""
    stamp = (program.layout_generation, block.section, len(block.instructions))
    cache = block._decode_cache
    if cache is not None and cache[0] == stamp:
        return cache[1]
    decoded = _build_block(program, block)
    block._decode_cache = (stamp, decoded)
    return decoded
