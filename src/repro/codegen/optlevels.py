"""Optimization-level definitions (mirroring the GCC levels used by the paper).

The paper evaluates its flash-RAM placement at ``-O0``, ``-O1``, ``-O2``,
``-O3`` and ``-Os`` of GCC 4.8.2.  Our pipelines are necessarily simpler.
Levels can produce differently shaped code (more/fewer blocks, spills, memory
traffic), but on the BEEBS kernels several levels converge on one program,
identical in instruction text and simulated cycles, so the placement ILP
faces the same instance at each of them:

* 2dfir and blowfish: O2, O3 and Os;
* crc32 and cubic: O1, O2 and O3;
* dijkstra: O2 and O3;
* fdct, int_matmult and sha: O2 and Os.

Only float_matmult and rijndael differ at every level; the 50 (kernel, level)
pairs compile to 38 distinct programs.  The experiment engine names programs
by :meth:`~repro.engine.cache.ProgramCache.digest`, so within one engine a
collapsed level's placement is solved and simulated once, not per level.

* ``O0`` — no IR optimization, spill-everything register allocation.
* ``O1`` — constant folding, block-local copy propagation, DCE, CFG cleanup,
  linear-scan register allocation.
* ``O2`` — O1 plus common-subexpression elimination and a second pipeline
  iteration.
* ``O3`` — O2 with a third iteration of the pipeline (the paper's O3 results
  are close to O2 for these kernels too).
* ``Os`` — the O2 pipeline, with compare-and-branch-with-zero (``cbz``)
  disabled in favour of reusing compare results; net effect is slightly
  denser code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List

from repro.passes import (
    CommonSubexpressionEliminationPass,
    ConstantFoldingPass,
    CopyPropagationPass,
    DeadCodeEliminationPass,
    SimplifyCFGPass,
)
from repro.passes.pass_manager import FunctionPass, PassManager


class OptLevel(Enum):
    """Named optimization levels accepted by the compiler driver."""

    O0 = "O0"
    O1 = "O1"
    O2 = "O2"
    O3 = "O3"
    OS = "Os"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "OptLevel":
        normalized = text.lstrip("-")
        for level in cls:
            if level.value.lower() == normalized.lower():
                return level
        raise ValueError(f"unknown optimization level {text!r}")


@dataclass
class PipelineConfig:
    """What a given optimization level does."""

    level: OptLevel
    passes: List[FunctionPass]
    iterations: int
    spill_all: bool
    use_cbz: bool


def _standard_passes(with_cse: bool) -> List[FunctionPass]:
    passes: List[FunctionPass] = [
        ConstantFoldingPass(),
        CopyPropagationPass(),
    ]
    if with_cse:
        passes.append(CommonSubexpressionEliminationPass())
    passes.extend([
        DeadCodeEliminationPass(),
        SimplifyCFGPass(),
    ])
    return passes


PIPELINES = {
    OptLevel.O0: PipelineConfig(OptLevel.O0, [], 0, spill_all=True, use_cbz=False),
    OptLevel.O1: PipelineConfig(OptLevel.O1, _standard_passes(with_cse=False), 1,
                                spill_all=False, use_cbz=True),
    OptLevel.O2: PipelineConfig(OptLevel.O2, _standard_passes(with_cse=True), 2,
                                spill_all=False, use_cbz=True),
    OptLevel.O3: PipelineConfig(OptLevel.O3, _standard_passes(with_cse=True), 3,
                                spill_all=False, use_cbz=True),
    OptLevel.OS: PipelineConfig(OptLevel.OS, _standard_passes(with_cse=True), 2,
                                spill_all=False, use_cbz=False),
}


def pass_manager_for(level: OptLevel) -> PassManager:
    """Create a :class:`PassManager` configured for *level*."""
    config = PIPELINES[level]
    return PassManager(config.passes, iterate=max(config.iterations, 1))
