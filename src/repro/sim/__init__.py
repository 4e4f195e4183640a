"""Cortex-M3-like microcontroller simulator with an energy model.

This package stands in for the paper's power-instrumented STM32VLDISCOVERY
board.  It executes linked :class:`~repro.machine.MachineProgram` objects,
counts cycles (including the RAM-contention stalls the paper's ``L_b``
parameter models), attributes per-cycle power according to which memory the
instruction stream is fetched from (flash or RAM, Figure 1), and produces
per-block execution counts used as the "actual frequency" input of Figure 5.

Two timing models are available (``repro.sim.pipeline``): the default
``flat`` accounting the paper calibrates against, and an opt-in
``pipelined`` model with fetch/execute overlap, branch-flush and load-use
hazards, and an optional direct-mapped instruction cache in front of flash.
Both run on one decode-once loop, whose pipelined stages never change a
``flat`` result: the committed flat and pipelined reference stores pin both
bit for bit.  Select a model per run with ``Simulator(..., timing_model=...)``.
"""

from repro.sim.memory import MemorySystem, MemoryError_
from repro.sim.energy import EnergyModel, PowerTable, DEFAULT_POWER_TABLE
from repro.sim.profiler import BlockProfile
from repro.sim.pipeline import TIMING_MODELS, TimingSpec
from repro.sim.cpu import Simulator, SimulationResult, SimulationError

__all__ = [
    "MemorySystem",
    "MemoryError_",
    "EnergyModel",
    "PowerTable",
    "DEFAULT_POWER_TABLE",
    "BlockProfile",
    "TIMING_MODELS",
    "TimingSpec",
    "Simulator",
    "SimulationResult",
    "SimulationError",
]
