"""Public API of the flash-RAM placement optimization.

Typical use::

    program = compile_source(source, CompileOptions.for_level("O2"))
    optimizer = FlashRAMOptimizer(program)
    solution = optimizer.optimize()          # selects blocks and rewrites code
    result = Simulator(program).run()        # program now uses RAM for code

The optimizer derives ``R_spare`` from the memory map and a static stack-usage
analysis when it is not given explicitly (Section 4.1), supports the static
and profiled frequency modes of the evaluation, and exposes the greedy and
exhaustive solvers for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.stack_usage import estimate_stack_usage, spare_ram_for_code
from repro.machine.program import MachineProgram
from repro.placement.cost_model import PlacementCostModel, PlacementEstimate
from repro.placement.ilp import build_placement_ilp, solution_to_ram_set
from repro.placement.parameters import BlockParameters, extract_parameters
from repro.placement.solvers.branch_and_bound import solve_ilp
from repro.placement.solvers.exhaustive import exhaustive_best_placement
from repro.placement.solvers.greedy import greedy_placement
from repro.sim.energy import EnergyModel
from repro.sim.pipeline import TimingSpec
from repro.sim.profiler import BlockProfile
from repro.telemetry import get_telemetry
from repro.transform.relocation import apply_placement

#: The placement solvers ``PlacementConfig.solver`` can name.
SOLVERS = ("ilp", "greedy", "exhaustive")


@dataclass
class PlacementConfig:
    """Developer-facing knobs (Section 4.1's X_limit and R_spare) and options.

    ``timing_model`` selects the cycle-accounting scheme the cost model (and
    the simulator the results are validated against) assumes — ``"flat"``
    (the paper's wait-state model, default) or the pipelined variants of
    :mod:`repro.sim.pipeline` (``"pipelined"``, ``"pipelined+icache[:LxB]"``).
    """

    x_limit: float = 1.5
    r_spare: Optional[int] = None
    frequency_mode: str = "static"
    loop_weight: int = 10
    solver: str = "ilp"          # one of SOLVERS
    max_nodes: int = 400
    stack_reserve: int = 1024
    safety_margin: int = 64
    timing_model: str = "flat"


@dataclass
class PlacementSolution:
    """Chosen placement plus the model's predictions for it."""

    ram_blocks: Set[str] = field(default_factory=set)
    estimate: Optional[PlacementEstimate] = None
    baseline_energy_j: float = 0.0
    baseline_cycles: float = 0.0
    r_spare: int = 0
    x_limit: float = 1.0
    solver: str = "ilp"
    solver_status: str = ""
    #: ILP solver counters (nodes, LP pivots, warm/cold solves); empty for
    #: the greedy and exhaustive solvers.
    solver_stats: Dict[str, int] = field(default_factory=dict)
    instrumented: List[str] = field(default_factory=list)

    @property
    def predicted_energy_reduction(self) -> float:
        """Fraction of energy saved according to the model (0.1 == 10 %)."""
        if not self.baseline_energy_j or self.estimate is None:
            return 0.0
        return 1.0 - self.estimate.energy_j / self.baseline_energy_j

    @property
    def predicted_time_increase(self) -> float:
        if self.estimate is None:
            return 0.0
        return self.estimate.time_ratio - 1.0


class FlashRAMOptimizer:
    """Selects basic blocks to move to RAM and applies the transformation."""

    def __init__(self, program: MachineProgram,
                 energy_model: Optional[EnergyModel] = None,
                 config: Optional[PlacementConfig] = None):
        self.program = program
        self.energy_model = energy_model or EnergyModel()
        self.config = config or PlacementConfig()
        self._parameters: Optional[Dict[str, BlockParameters]] = None
        self._cost_model: Optional[PlacementCostModel] = None

    # ------------------------------------------------------------------ #
    # Model construction
    # ------------------------------------------------------------------ #
    def build_cost_model(self, profile: Optional[BlockProfile] = None) -> PlacementCostModel:
        """Extract block parameters and build the Section 4.3 cost model.

        Under a pipelined ``timing_model`` the extracted parameters carry
        static hazard/flash-stall estimates and, with an icache, the
        ``E_flash`` coefficient blends toward ``E_ram`` at the assumed hit
        rate (:meth:`~repro.sim.pipeline.TimingSpec.effective_e_flash`).
        With the flat default both are pass-throughs.
        """
        timing = TimingSpec.parse(self.config.timing_model)
        parameters = extract_parameters(
            self.program,
            frequency_mode=self.config.frequency_mode,
            profile=profile,
            loop_weight=self.config.loop_weight,
            timing=None if timing.is_flat else timing,
        )
        self._parameters = parameters
        self._cost_model = PlacementCostModel(
            parameters, timing.effective_e_flash(self.energy_model),
            self.energy_model.e_ram)
        return self._cost_model

    @property
    def cost_model(self) -> PlacementCostModel:
        if self._cost_model is None:
            self.build_cost_model()
        return self._cost_model

    @property
    def parameters(self) -> Dict[str, BlockParameters]:
        """The per-block Section 4.1 parameters the last model was built on."""
        if self._parameters is None:
            self.build_cost_model()
        return self._parameters

    def derive_r_spare(self) -> int:
        """Derive the spare RAM available for code (Section 4.1, R_spare).

        Every term is in **bytes**: per-function frames (frame bytes plus one
        4-byte word per saved register and for the link register), the
        worst-case call-chain depth from the static stack analysis, the
        configured ``stack_reserve`` head-room, and the safety margin.
        """
        if self.config.r_spare is not None:
            return self.config.r_spare
        frame_sizes = {}
        call_edges = {}
        for function in self.program.iter_functions():
            frame_sizes[function.name] = (function.frame_size
                                          + 4 * (len(function.saved_registers)
                                                 + (1 if function.makes_calls else 0)))
            call_edges[function.name] = set(function.callee_names())
        stack = estimate_stack_usage(frame_sizes, call_edges, self.program.entry)
        return spare_ram_for_code(
            self.program.ram.size,
            self.program.mutable_data_size(),
            max(stack.worst_case, 0) + self.config.stack_reserve,
            safety_margin=self.config.safety_margin,
        )

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def select_blocks(self, profile: Optional[BlockProfile] = None) -> PlacementSolution:
        """Run the solver and return the chosen placement (without applying it)."""
        model = self.build_cost_model(profile)
        r_spare = self.derive_r_spare()
        x_limit = self.config.x_limit

        solution = PlacementSolution(
            baseline_energy_j=model.baseline_energy(),
            baseline_cycles=model.baseline_cycles(),
            r_spare=r_spare,
            x_limit=x_limit,
            solver=self.config.solver,
        )

        if self.config.solver == "greedy":
            ram = greedy_placement(model, r_spare, x_limit)
            solution.solver_status = "heuristic"
        elif self.config.solver == "exhaustive":
            ram = exhaustive_best_placement(model, r_spare, x_limit)
            solution.solver_status = "exhaustive"
        elif self.config.solver == "ilp":
            problem = build_placement_ilp(model, r_spare, x_limit)
            result = solve_ilp(problem, max_nodes=self.config.max_nodes)
            solution.solver_stats = {
                "nodes_explored": result.nodes_explored,
                "lp_pivots": result.lp_pivots,
                "warm_solves": result.warm_solves,
                "cold_solves": result.cold_solves,
                "unresolved_nodes": result.unresolved_nodes,
            }
            hub = get_telemetry()
            if hub.enabled:
                for stat_name, stat_value in solution.solver_stats.items():
                    hub.add(f"solver.{stat_name}", stat_value)
            if result.values is None:
                # The empty placement is always feasible, so falling back to
                # it must not masquerade as the solver's own verdict: tag the
                # status so sweep records distinguish "the solver gave up"
                # (or proved the *constrained* problem empty) from a placement
                # it actually chose.
                ram = set()
                solution.solver_status = f"fallback-empty:{result.status}"
            else:
                ram = set(solution_to_ram_set(problem, result.values))
                solution.solver_status = result.status
        else:
            raise ValueError(f"unknown solver {self.config.solver!r}")

        # Never accept a placement the model considers worse than baseline or
        # infeasible (can happen with the heuristic under tight constraints).
        if ram and not model.is_feasible(ram, r_spare, x_limit):
            ram = set()
        estimate = model.evaluate(ram)
        if estimate.energy_j > solution.baseline_energy_j:
            ram = set()
            estimate = model.evaluate(ram)
        solution.ram_blocks = ram
        solution.estimate = estimate
        return solution

    # ------------------------------------------------------------------ #
    # Application
    # ------------------------------------------------------------------ #
    def apply(self, solution: PlacementSolution) -> PlacementSolution:
        """Rewrite the program according to *solution* (Section 5)."""
        solution.instrumented = apply_placement(
            self.program, solution.ram_blocks,
            stack_reserve=self.config.stack_reserve)
        return solution

    def optimize(self, profile: Optional[BlockProfile] = None) -> PlacementSolution:
        """Select a placement and apply it to the program."""
        solution = self.select_blocks(profile)
        return self.apply(solution)


def optimize_program(program: MachineProgram,
                     energy_model: Optional[EnergyModel] = None,
                     **config_kwargs) -> PlacementSolution:
    """One-call convenience wrapper: optimize *program* in place."""
    config = PlacementConfig(**config_kwargs)
    optimizer = FlashRAMOptimizer(program, energy_model=energy_model, config=config)
    return optimizer.optimize()
