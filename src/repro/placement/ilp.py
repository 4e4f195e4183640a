"""Linearised ILP formulation of the placement problem (Section 4.3).

Decision variables per eligible (non-library) block ``b``:

* ``r_b`` — 1 if the block is placed in RAM,
* ``i_b`` — 1 if the block must be instrumented,
* ``z_b`` — the linearisation of the product ``i_b * r_b`` (McCormick).

Objective (minimisation, constant term dropped from the matrix but recorded)::

    sum_b F_b [ C_b*Ef + C_b*(Er-Ef)*r_b + T_b*Ef*i_b + T_b*(Er-Ef)*z_b
                + L_b*Er*r_b ]

Constraints::

    i_b >= r_b - r_s,  i_b >= r_s - r_b      for every successor s   (Eq. 5)
    z_b >= i_b + r_b - 1,  z_b <= i_b,  z_b <= r_b
    sum_b S_b*r_b + K_b*z_b <= R_spare                               (Eq. 7)
    sum_b F_b*(T_b*i_b + L_b*r_b) <= (X_limit - 1) * sum_b F_b*C_b   (Eq. 9)
    0 <= r_b, i_b, z_b <= 1;  r_b integral

The ``[0, 1]`` boxes live in the problem's ``lower``/``upper`` vectors, not
in the constraint matrix: the bounded-variable simplex engine handles them
natively, which keeps the matrix smaller and — crucially for the
branch-and-bound warm start — lets branching tighten a bound without
changing the matrix at all.

Because ``i`` and ``z`` are forced to integral values once every ``r`` is
integral, the branch-and-bound solver only branches on the ``r`` variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.placement.cost_model import PlacementCostModel


@dataclass
class ILPProblem:
    """A minimisation ILP: ``min c.x  s.t.  A x <= b, lower <= x <= upper``.

    ``lower``/``upper`` default to ``0``/``+inf`` when left ``None`` (the
    historical row-only form).
    """

    objective: np.ndarray
    constant: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    var_names: List[str]
    branch_vars: List[int]
    r_index: Dict[str, int] = field(default_factory=dict)
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(lower, upper)`` box, materialising the defaults."""
        lower = (np.zeros(self.num_vars) if self.lower is None
                 else np.asarray(self.lower, dtype=float))
        upper = (np.full(self.num_vars, np.inf) if self.upper is None
                 else np.asarray(self.upper, dtype=float))
        return lower, upper


def build_placement_ilp(model: PlacementCostModel, r_spare: float,
                        x_limit: float) -> ILPProblem:
    """Build the linearised placement ILP from a cost model and the two knobs."""
    if x_limit < 1.0:
        raise ValueError("X_limit must be >= 1.0 (it is a slowdown bound)")
    if r_spare < 0:
        raise ValueError("R_spare must be non-negative")

    eligible = model.eligible_keys()
    index_of: Dict[str, int] = {}
    var_names: List[str] = []
    for key in eligible:
        index_of[key] = len(var_names)
        var_names.extend([f"r[{key}]", f"i[{key}]", f"z[{key}]"])

    num_vars = len(var_names)
    delta = model.e_ram - model.e_flash  # negative: RAM is cheaper

    # Pipelined timing model: a block left in flash pays its estimated fetch
    # stalls f_b (flash_stall_cycles), a block moved to RAM does not.  Moving
    # block b then changes its energy by F_b*[(C_b+L_b)*E_ram - (C_b+f_b)*
    # E_flash] = F_b*[C_b*delta + L_b*E_ram - f_b*E_flash].  All stall terms
    # are zero under the flat model, keeping the flat arithmetic bit-exact.
    objective = np.zeros(num_vars)
    constant = 0.0
    for key, params in model.parameters.items():
        stall = params.flash_stall_cycles
        if stall:
            constant += params.frequency * (params.cycles + stall) * model.e_flash
        else:
            constant += params.frequency * params.cycles * model.e_flash
        if key not in index_of:
            continue
        base = index_of[key]
        if stall:
            objective[base + 0] += params.frequency * (
                params.cycles * delta + params.ram_stall_cycles * model.e_ram
                - stall * model.e_flash)
        else:
            objective[base + 0] += params.frequency * (
                params.cycles * delta + params.ram_stall_cycles * model.e_ram)
        objective[base + 1] += params.frequency * params.instrument_cycles * model.e_flash
        objective[base + 2] += params.frequency * params.instrument_cycles * delta

    rows: List[np.ndarray] = []
    rhs: List[float] = []

    def add_row(coefficients: Dict[int, float], bound: float) -> None:
        row = np.zeros(num_vars)
        for column, value in coefficients.items():
            row[column] += value
        rows.append(row)
        rhs.append(bound)

    # Equation 5: instrumentation coupling with every successor.  Duplicate
    # successor edges produce identical rows, so each distinct row is emitted
    # once: in particular all library successors of a block collapse onto the
    # single ``i_b >= r_b`` row.
    for key in eligible:
        base = index_of[key]
        params = model.parameters[key]
        library_row_emitted = False
        for succ in dict.fromkeys(params.successors):
            if succ == key:
                continue
            succ_base = index_of.get(succ)
            if succ_base is None:
                # Successor cannot move (library): i_b >= r_b.
                if not library_row_emitted:
                    add_row({base + 0: 1.0, base + 1: -1.0}, 0.0)
                    library_row_emitted = True
                continue
            add_row({base + 0: 1.0, succ_base + 0: -1.0, base + 1: -1.0}, 0.0)
            add_row({succ_base + 0: 1.0, base + 0: -1.0, base + 1: -1.0}, 0.0)

    # McCormick envelope for z = i * r.
    for key in eligible:
        base = index_of[key]
        add_row({base + 1: 1.0, base + 0: 1.0, base + 2: -1.0}, 1.0)
        add_row({base + 2: 1.0, base + 1: -1.0}, 0.0)
        add_row({base + 2: 1.0, base + 0: -1.0}, 0.0)

    # Equation 7: RAM budget.
    ram_row: Dict[int, float] = {}
    for key in eligible:
        base = index_of[key]
        params = model.parameters[key]
        ram_row[base + 0] = float(params.size)
        ram_row[base + 2] = float(params.instrument_bytes)
    add_row(ram_row, float(r_spare))

    # Equation 9: execution-time bound.  Under the pipelined model moving a
    # block to RAM removes its flash stalls, so its time coefficient is
    # F_b*(L_b - f_b) — possibly negative (a RAM placement can *speed up*
    # execution), which the LP relaxation handles without special casing.
    # The baseline on the right-hand side includes the stalls symmetrically.
    time_row: Dict[int, float] = {}
    for key in eligible:
        base = index_of[key]
        params = model.parameters[key]
        time_row[base + 1] = params.frequency * params.instrument_cycles
        if params.flash_stall_cycles:
            time_row[base + 0] = params.frequency * (
                params.ram_stall_cycles - params.flash_stall_cycles)
        else:
            time_row[base + 0] = params.frequency * params.ram_stall_cycles
    add_row(time_row, (x_limit - 1.0) * model.baseline_cycles())

    problem = ILPProblem(
        objective=objective,
        constant=constant,
        a_ub=np.vstack(rows) if rows else np.zeros((0, num_vars)),
        b_ub=np.array(rhs),
        var_names=var_names,
        branch_vars=[index_of[key] for key in eligible],
        r_index={key: index_of[key] for key in eligible},
        # The 0/1 boxes for r, i and z live here, not in the matrix.
        lower=np.zeros(num_vars),
        upper=np.ones(num_vars),
    )
    return problem


def solution_to_ram_set(problem: ILPProblem, values: np.ndarray,
                        threshold: float = 0.5) -> List[str]:
    """Convert an assignment vector into the list of block keys placed in RAM."""
    return [key for key, index in problem.r_index.items()
            if values[index] > threshold]
