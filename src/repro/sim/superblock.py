"""Trace-compiled superblocks: the simulator's second-stage speed layer.

Decode-once (:mod:`repro.sim.decode`) removed per-instruction *decoding* from
the hot loop, but every executed instruction still paid the interpreter-loop
tax: an instruction-budget check, a record fetch, predication tests, the
conditional/contention branches, four accounting updates and a transfer
check — plus a per-block dict lookup and ``predecode`` call on every control
transfer.  For loop-heavy kernels those overheads dominate once the handlers
themselves are closures.

This module chains *hot* decoded blocks into **superblocks** specialised on
the successor path that was actually observed:

* the simulator counts block entries; when a block crosses
  :data:`HOT_THRESHOLD` it records the trace execution takes next (classic
  trace compilation: the observed path IS the prediction);
* the traced blocks are compiled into one flat :class:`Superblock` — per
  block, runs of "static-accounting" instructions (ALU/moves/compares,
  literal loads, push/pop: everything whose cycles, energy key and lack of
  control transfer are known at decode time) collapse into a single
  **batch step** with ONE cycle add, ONE instruction-count add and one
  energy-counter bump per distinct energy key for the whole segment;
* each node's step list is then flattened into one *generated* Python
  function (:func:`_codegen_node`): handler calls unrolled straight-line,
  all static accounting folded into constants, only data regions and branch
  directions left as run-time branches — the step tuples never pay an
  interpretive dispatch at execution time;
* loads/stores with run-time data regions keep per-instruction accounting
  (their RAM-contention stall and energy key depend on the address), and
  every control-transfer instruction becomes a **guard step**: if the
  transfer goes where the trace predicted, execution continues inside the
  superblock (a trace that closes back on its head runs whole loop
  iterations without ever touching the outer dispatch loop); any other
  outcome is a **side exit** that hands the ordinary transfer back to the
  generic decode-once loop;
* fetch-region and contention flags are hoisted: each constituent block's
  section is static, so its ``cycles_by_section`` bucket and the
  fetch-is-RAM half of the contention predicate are baked into the steps.

Bit-exactness: cycle counts, instruction counts, per-block profile deltas and
section buckets are integer sums, which batching cannot change.  Energy is
exact because the simulator accounts energy as *event counts* per
``(cycles, fetch_region, instr_class, data_region)`` key and reduces them in
one deterministic pass (see ``SimulationResult.priced``) — bumping a
counter by N for a whole segment is bitwise-identical to bumping it N
times.  The only observable difference is error *timing*: the runaway
guard (``max_instructions``) is checked per constituent block instead of per
instruction, so a diverging program may execute up to one superblock
iteration more before raising the same :class:`SimulationError`.

Invalidation rides ``MachineProgram.layout_generation`` exactly like the
decode cache: superblocks live on the program in a generation-stamped map
(:meth:`~repro.machine.program.MachineProgram.superblock_map`), so any
re-layout — in particular the flash-RAM placement transformation — discards
them wholesale and the next run re-forms them from fresh observations.

Superblocks are **flat-timing only**: their batched accounting bakes in the
flat cycle model.  Under a pipelined ``timing_model``
(:mod:`repro.sim.pipeline`) the simulator's decode-once loop runs its
fetch, hazard and flush stages instead, and never forms or executes
superblocks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import Opcode
from repro.isa.timing import RAM_CONTENTION_STALL
from repro.machine.program import MachineProgram
from repro.sim.decode import SimulationError, predecode

#: Block-entry count after which a block's observed trace is compiled.
HOT_THRESHOLD = 16

#: Maximum number of constituent blocks in one superblock.
MAX_CHAIN = 16

#: Step tags (plain ints: fastest to dispatch on in the executor).  Energy
#: keys are ``(cycles, fetch_region, klass_value, data_region)`` tuples — the
#: same shape the generic loops build, with the InstrClass *value* string so
#: dict operations never call the Python-level ``Enum.__hash__``.
STEP_BATCH = 0   # (tag, runs, n, cycles, energy_items)
STEP_MEM = 1     # (tag, run, cycles, ekey_ram, ekey_flash, ekey_none)
STEP_CTRL = 2    # (tag, run, conditional, cycles_taken, ekey_taken, cycles_nt, ekey_nt)

#: Opcodes whose decoded handler never returns a data region or a transfer
#: and whose cycle cost is static — eligible for batch steps as-is.
_PURE_OPS = frozenset({
    Opcode.MOV, Opcode.MVN, Opcode.ADD, Opcode.SUB, Opcode.RSB, Opcode.MUL,
    Opcode.SDIV, Opcode.UDIV, Opcode.AND, Opcode.ORR, Opcode.EOR, Opcode.LSL,
    Opcode.LSR, Opcode.ASR, Opcode.CMP, Opcode.NOP,
})

#: Loads/stores whose data region (and hence contention and energy key) is
#: only known at run time.
_DYNAMIC_MEM_OPS = frozenset({Opcode.LDR, Opcode.LDRB, Opcode.STR, Opcode.STRB})


def _codegen_node(steps: List[tuple]):
    """Flatten a node's step list into one generated Python function.

    Interpreting the step tuples still pays, per step, a tag dispatch, a
    tuple unpack and the inner ``for run in runs`` loop — measured at more
    than half the superblocked run time on loop-heavy kernels.  Generating
    straight-line source instead removes all of it: handler calls are
    unrolled, every statically-known cycle count and energy bump is folded
    into ONE constant add / one dict update per distinct key for the whole
    node, and only the genuinely dynamic parts remain as branches (the data
    region of a load/store, the direction of a conditional transfer).

    The generated function has signature ``(sim, energy_counts, get)`` and
    returns ``(block_cycles, instructions, transfer)``; handler closures and
    energy-key tuples are bound as keyword defaults, which makes them
    local-variable loads at call time.  Accounting identity with the
    interpreted step loop is exact: cycles and energy-event counts are
    integer sums, so folding and reordering the updates cannot change any
    result bit (see the module docstring).
    """
    binds: Dict[str, object] = {}

    def bind(stem: str, value) -> str:
        name = f"{stem}{len(binds)}"
        binds[name] = value
        return name

    lines: List[str] = ["    cycles = 0", "    transfer = None"]
    static_cycles = 0
    static_energy: Dict[tuple, int] = {}
    count = 0

    def flush() -> None:
        # Apply the statically-known accounting accumulated so far; called
        # before any point the function can return.
        nonlocal static_cycles
        if static_cycles:
            lines.append(f"    cycles += {static_cycles}")
            static_cycles = 0
        for key, bump in static_energy.items():
            k = bind("k", key)
            lines.append(f"    energy_counts[{k}] = get({k}, 0) + {bump}")
        static_energy.clear()

    for position, step in enumerate(steps):
        tag = step[0]
        last = position == len(steps) - 1
        if tag == STEP_BATCH:
            _tag, runs, n, cycles, energy_items = step
            count += n
            static_cycles += cycles
            for run in runs:
                lines.append(f"    {bind('r', run)}(sim)")
            for key, bump in energy_items:
                static_energy[key] = static_energy.get(key, 0) + bump
        elif tag == STEP_MEM:
            _tag, run, cycles, ekey_ram, ekey_flash, ekey_none = step
            count += 1
            kr = bind("k", ekey_ram)
            kf = bind("k", ekey_flash)
            kn = bind("k", ekey_none)
            lines.append(f"    region = {bind('r', run)}(sim)[0]")
            lines.append("    if region == 'ram':")
            lines.append(f"        cycles += {ekey_ram[0]}")
            lines.append(f"        energy_counts[{kr}] = get({kr}, 0) + 1")
            lines.append("    elif region == 'flash':")
            lines.append(f"        cycles += {cycles}")
            lines.append(f"        energy_counts[{kf}] = get({kf}, 0) + 1")
            lines.append("    else:")
            lines.append(f"        cycles += {cycles}")
            lines.append(f"        energy_counts[{kn}] = get({kn}, 0) + 1")
        else:  # STEP_CTRL
            _tag, run, conditional, cycles, ekey_taken, cycles_nt, ekey_nt = step
            count += 1
            if conditional:
                kt = bind("k", ekey_taken)
                knt = bind("k", ekey_nt)
                lines.append(f"    transfer = {bind('r', run)}(sim)[1]")
                lines.append("    if transfer is None:")
                lines.append(f"        cycles += {cycles_nt}")
                lines.append(f"        energy_counts[{knt}] = get({knt}, 0) + 1")
                lines.append("    else:")
                lines.append(f"        cycles += {cycles}")
                lines.append(f"        energy_counts[{kt}] = get({kt}, 0) + 1")
            else:
                # Unconditionally taken: its accounting is static too.
                static_cycles += cycles
                static_energy[ekey_taken] = static_energy.get(ekey_taken, 0) + 1
                lines.append(f"    transfer = {bind('r', run)}(sim)[1]")
            if not last:
                # A mid-node transfer skips the remaining steps, exactly like
                # the interpreted loop's ``break`` (basic blocks normally end
                # at their one control transfer, so this is a cold path).
                flush()
                lines.append("    if transfer is not None:")
                lines.append(f"        return cycles, {count}, transfer")
    flush()
    lines.append(f"    return cycles, {count}, transfer")

    defaults = "".join(f", {name}={name}" for name in binds)
    source = (f"def _run_node(sim, energy_counts, get{defaults}):\n"
              + "\n".join(lines) + "\n")
    namespace = dict(binds)
    exec(compile(source, "<superblock-node>", "exec"), namespace)
    return namespace["_run_node"]


class SuperblockNode:
    """One constituent block of a superblock: compiled steps + statics."""

    __slots__ = ("key", "payload", "function_name", "block_name",
                 "fetch_region", "steps", "run_node", "chain_next",
                 "fall_payload", "next_index")

    def __init__(self, key: str, payload: Tuple[str, str], fetch_region: str,
                 steps: List[tuple], fall_payload: Optional[Tuple[str, str]]):
        self.key = key
        self.payload = payload
        self.function_name, self.block_name = payload
        self.fetch_region = fetch_region
        self.steps = steps
        self.run_node = _codegen_node(steps)
        self.fall_payload = fall_payload
        #: Filled in by :func:`build_superblock` once the chain is known.
        self.chain_next: Optional[Tuple[str, str]] = None
        self.next_index: int = -1


class Superblock:
    """A compiled chain of blocks specialised on one observed path."""

    __slots__ = ("entry_payload", "nodes", "loop")

    def __init__(self, entry_payload: Tuple[str, str],
                 nodes: List[SuperblockNode], loop: bool):
        self.entry_payload = entry_payload
        self.nodes = nodes
        self.loop = loop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = " -> ".join(f"{fn}/{bn}" for fn, bn in
                            (n.payload for n in self.nodes))
        return f"<Superblock {chain}{' (loop)' if self.loop else ''}>"


def _compile_node(program: MachineProgram, payload: Tuple[str, str]
                  ) -> Optional[SuperblockNode]:
    """Compile one block into a step list, or ``None`` if it is ineligible."""
    function_name, block_name = payload
    block = program.functions[function_name].blocks[block_name]
    decoded = predecode(program, block)
    if not decoded.chainable:
        return None
    fetch_region = decoded.fetch_region
    fetch_is_ram = decoded.fetch_is_ram
    # The data region of a literal load is the block's own fetch section.
    static_data_region = "ram" if block.section == "ram" else "flash"

    steps: List[tuple] = []
    batch_runs: List = []
    batch_cycles = 0
    batch_energy: Dict[tuple, int] = {}

    def flush_batch() -> None:
        nonlocal batch_runs, batch_cycles, batch_energy
        if batch_runs:
            steps.append((STEP_BATCH, tuple(batch_runs), len(batch_runs),
                          batch_cycles, tuple(batch_energy.items())))
            batch_runs, batch_cycles, batch_energy = [], 0, {}

    def batch(record, cycles: int, data_region: Optional[str]) -> None:
        nonlocal batch_cycles
        batch_runs.append(record.run)
        batch_cycles += cycles
        key = (cycles, fetch_region, record.klass_value, data_region)
        batch_energy[key] = batch_energy.get(key, 0) + 1

    for record in decoded.records:
        op = record.instr.opcode
        cycles = record.cycles_taken
        if op in _PURE_OPS:
            batch(record, cycles, None)
        elif op is Opcode.LDR_LIT:
            # Static data region; the contention stall applies exactly when
            # the block executes from RAM (data region == fetch region).
            if fetch_is_ram and static_data_region == "ram":
                cycles += RAM_CONTENTION_STALL
            batch(record, cycles, static_data_region)
        elif op is Opcode.PUSH:
            batch(record, cycles, "ram")
        elif op is Opcode.POP and not any(reg.index == 15 for reg
                                          in record.instr.operands[0].regs):
            batch(record, cycles, "ram")
        elif op in _DYNAMIC_MEM_OPS:
            flush_batch()
            # These ops are all contention-eligible: a RAM data access stalls
            # exactly when the block itself executes from RAM, so the stall
            # is baked into the RAM-region energy key (its cycle component).
            stalled = cycles + RAM_CONTENTION_STALL if fetch_is_ram else cycles
            steps.append((STEP_MEM, record.run, cycles,
                          (stalled, fetch_region, record.klass_value, "ram"),
                          (cycles, fetch_region, record.klass_value, "flash"),
                          (cycles, fetch_region, record.klass_value, None)))
        else:
            # Control transfers: B/BCC/CBZ/CBNZ/BL/BX/LDR_PC_LIT/POP{...,pc}.
            flush_batch()
            data_region: Optional[str] = None
            if op is Opcode.LDR_PC_LIT:
                # Static data region, but LDR_PC_LIT is not a contention op
                # (not in decode._CONTENTION_OPS), so no stall either way.
                data_region = static_data_region
            elif op is Opcode.POP:
                data_region = "ram"
            ekey_taken = (cycles, fetch_region, record.klass_value, data_region)
            cycles_nt = record.cycles_not_taken
            ekey_nt = (cycles_nt, fetch_region, record.klass_value, data_region)
            steps.append((STEP_CTRL, record.run, record.conditional,
                          cycles, ekey_taken, cycles_nt, ekey_nt))
    flush_batch()

    fall_payload = (None if block.fallthrough is None
                    else (function_name, block.fallthrough))
    return SuperblockNode(program.block_key(block), payload, fetch_region,
                          steps, fall_payload)


def build_superblock(program: MachineProgram,
                     trace: List[Tuple[str, str]],
                     loop: bool) -> Optional[Superblock]:
    """Compile an observed *trace* of block payloads into a superblock.

    ``loop=True`` means the block executed after ``trace[-1]`` was
    ``trace[0]`` again, so the chain wraps around on itself.  Returns
    ``None`` when any traced block is ineligible (the caller then leaves
    the trace uncompiled and execution stays on the generic path).
    """
    if not trace:
        return None
    nodes: List[SuperblockNode] = []
    for payload in trace:
        node = _compile_node(program, payload)
        if node is None:
            return None
        nodes.append(node)
    for index, node in enumerate(nodes):
        if index + 1 < len(nodes):
            node.chain_next = nodes[index + 1].payload
            node.next_index = index + 1
        elif loop:
            node.chain_next = nodes[0].payload
            node.next_index = 0
    return Superblock(trace[0], nodes, loop)


def execute_superblock(sim, sb: Superblock, superblocks: Dict[Tuple[str, str], Superblock],
                       total_cycles: int, total_instructions: int,
                       cycles_by_section: Dict[str, int],
                       energy_counts: Dict[tuple, int], profile,
                       max_instructions: int
                       ) -> Tuple[str, object, int, int]:
    """Run *sb* until a side exit; returns the pending transfer + totals.

    The caller owns all accounting state: ``cycles_by_section``,
    ``energy_counts`` and ``profile`` are mutated in place, the integer
    totals travel through the return value.  A side exit whose ``"block"``
    target has its own superblock in *superblocks* chains straight into it
    (ping-ponging hot paths never touch the outer dispatch loop).  The
    returned ``(kind, payload)`` is exactly the transfer the generic loop
    would have seen (with end-of-block fallthrough normalised to a
    ``"block"`` transfer, which is dispatch-equivalent), and the profile
    entry for the block that produced it has already been recorded.
    """
    nodes = sb.nodes
    index = 0
    get = energy_counts.get
    profile_counts = profile.counts
    profile_cycles = profile.cycles
    counts_get = profile_counts.get
    cycles_get = profile_cycles.get
    while True:
        node = nodes[index]
        if total_instructions > max_instructions:
            raise SimulationError(
                f"instruction limit exceeded ({max_instructions}); "
                f"likely an infinite loop in {node.function_name}")

        block_cycles, count, transfer = node.run_node(sim, energy_counts, get)
        total_instructions += count
        total_cycles += block_cycles
        cycles_by_section[node.fetch_region] += block_cycles
        block_key = node.key
        profile_counts[block_key] = counts_get(block_key, 0) + 1
        profile_cycles[block_key] = cycles_get(block_key, 0) + block_cycles

        if transfer is None:
            if node.fall_payload is None:
                raise SimulationError(
                    f"fell off the end of "
                    f"{node.function_name}/{node.block_name}")
            transfer = ("block", node.fall_payload)
        kind, payload = transfer
        if kind == "block":
            if payload == node.chain_next:
                index = node.next_index
                continue
            target = superblocks.get(payload)
            if target is not None:
                nodes = target.nodes
                index = 0
                continue
        return kind, payload, total_cycles, total_instructions
