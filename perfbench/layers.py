"""In-memory span recorder around the calls into each layer's public functions.

Nothing inside ``src/`` is changed: :func:`traced` rebinds the layers'
entry points at the names their callers look them up by (module globals
and class attributes), records one span per call, and restores every
binding on exit.  A span's self time is its duration minus the time of the
spans nested directly inside it.

Layer (span name)      entry point, looked up at its call site
---------------------  -------------------------------------------------
codegen.compile        repro.engine.cache.compile_source
cache.lookup           ProgramCache.get_benchmark
cache.copy             ProgramCache.get_benchmark_mutable
placement.params       repro.placement.optimizer.extract_parameters
placement.build        repro.placement.optimizer.build_placement_ilp
placement.lp           repro.placement.optimizer.solve_ilp
placement.other        FlashRAMOptimizer.select_blocks (cost model, R_spare)
transform.apply        repro.placement.optimizer.apply_placement
sim.baseline/optimized Simulator.run (pristine cached program or a copy)
store.record           repro.explore.sweep.cell_record (called by the pass)
store.write            ResultStore.save_keyed (called by the pass)
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional

import repro.engine.cache as cache_module
import repro.placement.optimizer as optimizer_module
from repro.engine.cache import ProgramCache
from repro.placement.optimizer import FlashRAMOptimizer
from repro.sim.cpu import Simulator

PLACEMENT_LAYERS = ("placement.params", "placement.build", "placement.lp",
                    "placement.other", "transform.apply")
SIM_LAYERS = ("sim.baseline", "sim.optimized")
CACHE_LAYERS = ("codegen.compile", "cache.lookup", "cache.copy")
CELL_LAYERS = PLACEMENT_LAYERS + SIM_LAYERS + CACHE_LAYERS


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self.counts: Counter = Counter()
        self.cell = 0                   # spans of one cell share this id
        self._stack: List[List] = []    # [name, child seconds] per open span
        self._pristine: set = set()     # ids of cached pristine programs
        self._origin: Dict[int, tuple] = {}  # id(copy) -> (bench, level)
        self._param_inputs: set = set()

    # ------------------------------------------------------------------ #
    def span(self, name: str, call: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[1] += end - start
            self.spans.append({"name": name, "cell": self.cell,
                               "parent": parent[0] if parent else None,
                               "start": start, "end": end,
                               "self": end - start - frame[1]})

    def self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span["name"]] += span["self"]
        return dict(totals)

    # ------------------------------------------------------------------ #
    # Wrappers: one per entry point, counting what the layer did.
    # ------------------------------------------------------------------ #
    def _compile(self, original):
        def compile_source(*args, **kwargs):
            self.counts["codegen.programs"] += 1
            return self.span("codegen.compile", original, *args, **kwargs)
        return compile_source

    def _lookup(self, original):
        def get_benchmark(cache, name, opt_level="O2"):
            program = self.span("cache.lookup", original, cache, name,
                                opt_level)
            self._pristine.add(id(program))
            return program
        return get_benchmark

    def _copy(self, original):
        def get_benchmark_mutable(cache, name, opt_level="O2"):
            program = self.span("cache.copy", original, cache, name,
                                opt_level)
            self.counts["cache.copies"] += 1
            self._origin[id(program)] = (name, opt_level)
            return program
        return get_benchmark_mutable

    def _params(self, original):
        def extract_parameters(program, *args, **kwargs):
            parameters = self.span("placement.params", original, program,
                                   *args, **kwargs)
            self.counts["placement.params_calls"] += 1
            # Distinct inputs: the program it was copied from plus every
            # other argument (a profile only by identity).
            options = tuple(sorted(
                (name, id(value) if name == "profile" and value is not None
                 else getattr(value, "name", value))
                for name, value in kwargs.items()))
            self._param_inputs.add((self._origin.get(id(program)),
                                    args, options))
            return parameters
        return extract_parameters

    def _build(self, original):
        def build_placement_ilp(*args, **kwargs):
            problem = self.span("placement.build", original, *args, **kwargs)
            self.counts["placement.ilp_vars"] += problem.num_vars
            self.counts["placement.ilp_rows"] += int(problem.a_ub.shape[0])
            return problem
        return build_placement_ilp

    def _solve(self, original):
        def solve_ilp(*args, **kwargs):
            result = self.span("placement.lp", original, *args, **kwargs)
            counts = self.counts
            counts["placement.ilp_solves"] += 1
            counts["placement.optimal"] += result.status == "optimal"
            counts["placement.bb_nodes"] += result.nodes_explored
            counts["placement.lp_pivots"] += result.lp_pivots
            counts["placement.warm_solves"] += result.warm_solves
            counts["placement.cold_solves"] += result.cold_solves
            counts["placement.unresolved_nodes"] += result.unresolved_nodes
            return result
        return solve_ilp

    def _select(self, original):
        def select_blocks(optimizer, profile=None):
            return self.span("placement.other", original, optimizer, profile)
        return select_blocks

    def _apply(self, original):
        def apply_placement(program, ram_blocks, *args, **kwargs):
            instrumented = self.span("transform.apply", original, program,
                                     ram_blocks, *args, **kwargs)
            self.counts["transform.blocks_moved"] += len(ram_blocks)
            self.counts["transform.instrumented"] += len(instrumented)
            return instrumented
        return apply_placement

    def _simulate(self, original):
        def run(simulator, *args, **kwargs):
            name = ("sim.baseline" if id(simulator.program) in self._pristine
                    else "sim.optimized")
            result = self.span(name, original, simulator, *args, **kwargs)
            self.counts["sim.runs"] += 1
            self.counts["sim.instructions"] += result.instructions
            return result
        return run

    @property
    def params_unique(self) -> int:
        return len(self._param_inputs)


_BINDINGS = (
    (cache_module, "compile_source", "_compile"),
    (ProgramCache, "get_benchmark", "_lookup"),
    (ProgramCache, "get_benchmark_mutable", "_copy"),
    (optimizer_module, "extract_parameters", "_params"),
    (optimizer_module, "build_placement_ilp", "_build"),
    (optimizer_module, "solve_ilp", "_solve"),
    (FlashRAMOptimizer, "select_blocks", "_select"),
    (optimizer_module, "apply_placement", "_apply"),
    (Simulator, "run", "_simulate"),
)


@contextlib.contextmanager
def traced(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Route every layer entry point through *tracer* (``None``: no-op)."""
    if tracer is None:
        yield None
        return
    saved = []
    try:
        for owner, attribute, factory in _BINDINGS:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, getattr(tracer, factory)(original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
