"""Tests for the LP engine and the branch and bound built on it.

The bounded revised simplex (`BoundedLP`) is fuzzed against scipy's HiGHS LP
solver (`linprog`) on randomly generated problems, and its dual-simplex warm
start is checked to agree with cold solves after bound tightenings.  The
branch and bound is checked to pick the same RAM set as HiGHS's exact MILP
solver (`milp`) across the placement regression corpus and every BEEBS
kernel, and each of its answers is certified against the cost model.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.beebs import BENCHMARK_NAMES
from repro.codegen import CompileOptions, compile_source
from repro.placement import (
    FlashRAMOptimizer,
    PlacementConfig,
    PlacementCostModel,
    build_placement_ilp,
    extract_parameters,
)
from repro.placement.ilp import ILPProblem, solution_to_ram_set
from repro.placement.parameters import BlockParameters
from repro.placement.solvers.branch_and_bound import ILPResult, solve_ilp
from repro.placement.solvers.lp import BoundedLP, LPResult, LPStatus
from repro.sim import EnergyModel

LOOP_SOURCE = """
int data[32];
int main(void) {
    for (int i = 0; i < 32; ++i) { data[i] = i; }
    int total = 0;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 32; ++i) {
            total += data[i] * round;
        }
        if (total > 100000) { total -= 100000; }
    }
    return total;
}
"""


def make_model():
    program = compile_source(LOOP_SOURCE, CompileOptions.for_level("O2"))
    params = extract_parameters(program)
    energy = EnergyModel()
    return PlacementCostModel(params, energy.e_flash, energy.e_ram)


#: linprog's status codes for the outcomes both solvers can report.
_HIGHS_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE,
                 3: LPStatus.UNBOUNDED}


def highs_ram_set(problem):
    """The RAM set HiGHS's exact MILP solver picks for *problem*.

    The objective is divided by its largest magnitude first: HiGHS's
    tolerances are absolute, and the placement objective's coefficients
    are energies many orders of magnitude below 1 J.
    """
    integrality = np.zeros(problem.num_vars)
    integrality[problem.branch_vars] = 1
    reference = milp(problem.objective / np.max(np.abs(problem.objective)),
                     constraints=LinearConstraint(problem.a_ub, -np.inf,
                                                  problem.b_ub),
                     integrality=integrality, bounds=Bounds(*problem.bounds()),
                     options={"mip_rel_gap": 0})
    assert reference.status == 0, reference.message
    return set(solution_to_ram_set(problem, reference.x))


# --------------------------------------------------------------------------- #
# Bounded engine vs HiGHS (fuzz)
# --------------------------------------------------------------------------- #
def test_bounded_engine_matches_dense_oracle_on_random_problems():
    rng = np.random.default_rng(2024)
    agreements = 0
    for trial in range(200):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 10))
        c = rng.normal(size=n) * 10.0 ** float(rng.integers(-3, 3))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 0.5
        upper = np.where(rng.random(n) < 0.6,
                         rng.uniform(0.3, 4.0, size=n), np.inf)
        lower = np.where(rng.random(n) < 0.3,
                         rng.uniform(0.0, 0.25, size=n), 0.0)
        lower = np.minimum(lower, upper)
        if rng.random() < 0.3:  # occasionally fix a variable (branching shape)
            j = int(rng.integers(n))
            lower[j] = upper[j] = float(np.clip(rng.uniform(0, 1),
                                                lower[j], upper[j]))
        mine = BoundedLP(c, a, b).solve(lower, upper)
        oracle = linprog(c, A_ub=a, b_ub=b, bounds=list(zip(lower, upper)),
                         method="highs")
        assert oracle.status in _HIGHS_STATUS, (trial, oracle.message)
        assert mine.status is _HIGHS_STATUS[oracle.status], trial
        if oracle.status == 0:
            agreements += 1
            assert mine.objective == pytest.approx(
                oracle.fun, abs=1e-6 * (1.0 + abs(oracle.fun))), trial
    assert agreements >= 80  # plenty of the random draws are feasible


def test_warm_start_agrees_with_cold_solve_after_bound_tightening():
    rng = np.random.default_rng(99)
    checked = warm_pivots = cold_pivots = 0
    for trial in range(120):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, 10))
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 1.0
        upper = rng.uniform(0.5, 3.0, size=n)
        lp = BoundedLP(c, a, b)
        parent = lp.solve(upper=upper)
        if parent.status is not LPStatus.OPTIMAL:
            continue
        assert parent.basis is not None and parent.at_upper is not None
        j = int(rng.integers(n))
        lower = np.zeros(n)
        tight_upper = upper.copy()
        lower[j] = tight_upper[j] = 0.0 if rng.random() < 0.5 else upper[j]
        warm = lp.solve(lower, tight_upper, warm=parent)
        cold = lp.solve(lower, tight_upper)
        assert warm.status is cold.status, trial
        if warm.status is LPStatus.OPTIMAL:
            checked += 1
            warm_pivots += warm.iterations
            cold_pivots += cold.iterations
            assert warm.objective == pytest.approx(
                cold.objective, abs=1e-6 * (1.0 + abs(cold.objective))), trial
    assert checked >= 60
    # The whole point of the warm start: far fewer pivots than a cold solve.
    assert warm_pivots < cold_pivots


def test_bounded_engine_solves_textbook_problem_with_native_bounds():
    # min -3x - 5y  s.t.  3x + 2y <= 18,  0 <= x <= 4,  0 <= y <= 6.
    c = np.array([-3.0, -5.0])
    a = np.array([[3.0, 2.0]])
    b = np.array([18.0])
    result = BoundedLP(c, a, b).solve(upper=np.array([4.0, 6.0]))
    assert result.status is LPStatus.OPTIMAL
    assert result.objective == pytest.approx(-36.0)
    assert result.values[0] == pytest.approx(2.0)
    assert result.values[1] == pytest.approx(6.0)
    assert result.basis is not None and result.basis.shape == (1,)


def test_fixing_by_equal_bounds_matches_historical_behaviour():
    lp = BoundedLP(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]),
                   np.array([1.0]))
    assert lp.solve(np.ones(2), np.ones(2)).status is LPStatus.INFEASIBLE
    partial = lp.solve(np.array([0.25, 0.0]), np.array([0.25, np.inf]))
    assert partial.status is LPStatus.OPTIMAL
    assert partial.values[0] == pytest.approx(0.25)


def test_bounded_engine_reports_iteration_limit():
    rng = np.random.default_rng(1)
    c = rng.normal(size=12)
    a = rng.normal(size=(18, 12))
    b = rng.normal(size=18) + 1.0
    limited = BoundedLP(c, a, b).solve(upper=np.full(12, 2.0),
                                       max_iterations=1)
    assert limited.status is LPStatus.ITERATION_LIMIT


def test_degenerate_cycling_problem_terminates_optimal():
    # Beale's classic cycling example: Dantzig pricing with naive tie-breaks
    # cycles forever in exact arithmetic; the degenerate-streak Bland
    # fallback must terminate at the optimum -1/20.
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a = np.array([
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    bounded = BoundedLP(c, a, b).solve()
    assert bounded.status is LPStatus.OPTIMAL
    assert bounded.objective == pytest.approx(-0.05)


def test_dense_solver_exact_on_duplicated_constraints():
    # Duplicated >= rows make the constraint system redundant.  min x0 + 2 x1
    # s.t. x0 + x1 >= 2 (three copies), x0 <= 1.5: the unique optimum sits at
    # x = (1.5, 0.5), objective 2.5.
    c = np.array([1.0, 2.0])
    a = np.array([
        [-1.0, -1.0],
        [-1.0, -1.0],
        [-1.0, -1.0],
        [1.0, 0.0],
    ])
    b = np.array([-2.0, -2.0, -2.0, 1.5])
    bounded = BoundedLP(c, a, b).solve()
    assert bounded.status is LPStatus.OPTIMAL
    assert bounded.objective == pytest.approx(2.5)
    assert bounded.values == pytest.approx(np.array([1.5, 0.5]))


# --------------------------------------------------------------------------- #
# Branch and bound vs HiGHS's MILP on the placement corpus
# --------------------------------------------------------------------------- #
def test_warm_and_cold_ilp_pick_identical_ram_sets_on_regression_corpus():
    model = make_model()
    for r_spare, x_limit in [(64, 1.1), (256, 1.3), (4096, 2.0)]:
        problem = build_placement_ilp(model, r_spare, x_limit)
        result = solve_ilp(problem)
        assert result.status == "optimal", (r_spare, x_limit)
        assert (set(solution_to_ram_set(problem, result.values))
                == highs_ram_set(problem)), (r_spare, x_limit)
        assert result.warm_solves + result.cold_solves > 0
        # The solver reports real pivot work through the stats plumbing.
        assert result.lp_pivots > 0


#: (nodes_explored, lp_pivots, warm_solves, RAM set) per corpus instance,
#: as the solver produced them before siblings shared their parent's
#: basis inverse: the sharing must not move a single pivot.
_LOOP_RAM = ["main:entry.0", "main:for.body.2", "main:for.body.6",
             "main:for.cond.1", "main:for.cond.5", "main:for.end.4",
             "main:for.end.8", "main:for.step.7", "main:if.then.13"]
PINNED_CORPUS = {
    (64, 1.1): (23, 400, 44, _LOOP_RAM),
    (256, 1.3): (1, 11, 0, sorted(_LOOP_RAM + [
        "main:for.body.10", "main:for.cond.9", "main:for.end.12"])),
    (4096, 2.0): (1, 11, 0, sorted(_LOOP_RAM + [
        "main:for.body.10", "main:for.cond.9", "main:for.end.12"])),
}


def test_siblings_share_one_inverse_of_their_parent_basis(monkeypatch):
    import repro.placement.solvers.branch_and_bound as bb
    from repro.placement.solvers.lp import _BoundedSimplex
    counts = {"inv": 0, "refactor": 0, "branched": 0}
    real_inv = np.linalg.inv
    real_refactor = _BoundedSimplex._refactor
    real_branch_var = bb._fractional_branch_var

    def counting_inv(matrix):
        counts["inv"] += 1
        return real_inv(matrix)

    def counting_refactor(engine):
        counts["refactor"] += 1
        return real_refactor(engine)

    def counting_branch_var(problem, values):
        var = real_branch_var(problem, values)
        counts["branched"] += var is not None
        return var

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    monkeypatch.setattr(_BoundedSimplex, "_refactor", counting_refactor)
    monkeypatch.setattr(bb, "_fractional_branch_var", counting_branch_var)
    model = make_model()
    for (r_spare, x_limit), pinned in PINNED_CORPUS.items():
        problem = build_placement_ilp(model, r_spare, x_limit)
        counts.update(inv=0, refactor=0, branched=0)
        result = solve_ilp(problem)
        ram = sorted(solution_to_ram_set(problem, result.values))
        assert (result.nodes_explored, result.lp_pivots, result.warm_solves,
                ram) == pinned, (r_spare, x_limit)
        # Each branched node's two children warm-start from one basis: one
        # inversion between them (refactorisations aside), not one each.
        warm_inversions = counts["inv"] - counts["refactor"]
        assert warm_inversions <= counts["branched"], (r_spare, x_limit)
        if result.warm_solves:
            assert warm_inversions < result.warm_solves


@pytest.mark.parametrize("kernel", BENCHMARK_NAMES)
def test_warm_and_cold_ilp_agree_on_beebs_kernels(kernel):
    from repro.engine import default_cache
    program = default_cache().get_benchmark_mutable(kernel, "O2")
    optimizer = FlashRAMOptimizer(program, config=PlacementConfig())
    model = optimizer.build_cost_model()
    r_spare = optimizer.derive_r_spare()
    for x_limit in (1.1, 1.5):
        problem = build_placement_ilp(model, r_spare, x_limit)
        result = solve_ilp(problem)
        assert result.status == "optimal", (kernel, x_limit)
        ram = set(solution_to_ram_set(problem, result.values))
        assert ram == highs_ram_set(problem), (kernel, x_limit)
        # Certify the answer against the cost model itself: the RAM set
        # meets Eq. 7 and 9, and the ILP objective is the model's energy.
        assert model.is_feasible(ram, r_spare, x_limit), (kernel, x_limit)
        assert result.objective + problem.constant == pytest.approx(
            model.evaluate(ram).energy_j, rel=1e-12), (kernel, x_limit)


def test_placement_ilp_carries_native_bounds_not_rows():
    model = make_model()
    problem = build_placement_ilp(model, r_spare=256, x_limit=1.3)
    assert problem.lower is not None and problem.upper is not None
    assert np.all(problem.upper == 1.0) and np.all(problem.lower == 0.0)
    # No constraint row is a plain single-variable upper bound any more.
    for row, rhs in zip(problem.a_ub, problem.b_ub):
        nonzero = np.nonzero(row)[0]
        assert not (nonzero.size == 1 and row[nonzero[0]] == 1.0
                    and rhs == 1.0), "bound row leaked into the matrix"


def test_library_successor_rows_are_deduplicated():
    # A block with several library successors historically emitted one
    # identical ``i_b >= r_b`` row per successor; they must collapse to one.
    params = {
        "f:a": BlockParameters("f:a", "f", "a", 10, 5, 1.0, 4, 4, 0,
                               ["lib:x", "lib:y", "lib:x"]),
        "lib:x": BlockParameters("lib:x", "lib", "x", 10, 5, 1.0, 4, 4, 0,
                                 [], library=True),
        "lib:y": BlockParameters("lib:y", "lib", "y", 10, 5, 1.0, 4, 4, 0,
                                 [], library=True),
    }
    model = PlacementCostModel(params, 2.0, 1.0)
    problem = build_placement_ilp(model, r_spare=64, x_limit=2.0)
    rows = {tuple(row) + (rhs,) for row, rhs in zip(problem.a_ub, problem.b_ub)}
    assert len(rows) == problem.a_ub.shape[0], "duplicate constraint rows"


def test_iteration_limited_child_forfeits_optimality_proof(monkeypatch):
    # min -2x0 - x1  s.t.  2x0 + 2x1 <= 3,  x binary: the optimum (1, 0)
    # lives in a "fix to 0" subtree.  If those children's LPs give up, the
    # solver must keep them as open nodes and report a modest "feasible" —
    # the historical behaviour skipped them like infeasible children and
    # claimed "optimal" for the wrong incumbent.
    problem = ILPProblem(
        objective=np.array([-2.0, -1.0]),
        constant=0.0,
        a_ub=np.array([[2.0, 2.0]]),
        b_ub=np.array([3.0]),
        var_names=["x0", "x1"],
        branch_vars=[0, 1],
        r_index={"x0": 0, "x1": 1},
        lower=np.zeros(2),
        upper=np.ones(2),
    )
    real_solve = BoundedLP.solve

    def flaky_solve(lp, lower=None, upper=None, **kwargs):
        if upper is not None and np.asarray(upper)[1] == 0.0:
            return LPResult(LPStatus.ITERATION_LIMIT)
        return real_solve(lp, lower=lower, upper=upper, **kwargs)

    monkeypatch.setattr(BoundedLP, "solve", flaky_solve)
    result = solve_ilp(problem)
    assert result.unresolved_nodes >= 1
    assert result.status == "feasible"
    assert not result.optimal
    # The reachable incumbent (0, 1) is *worse* than the optimum hidden in
    # the unresolved subtree — exactly why claiming "optimal" would be wrong.
    assert result.objective == pytest.approx(-1.0)
    # Without interference the same problem is solved to proven optimality.
    monkeypatch.setattr(BoundedLP, "solve", real_solve)
    clean = solve_ilp(problem)
    assert clean.status == "optimal" and clean.objective == pytest.approx(-2.0)
    assert clean.unresolved_nodes == 0


def test_optimizer_reports_fallback_empty_when_solver_gives_up(monkeypatch):
    import repro.placement.optimizer as optimizer_module
    program = compile_source(LOOP_SOURCE, CompileOptions.for_level("O2"))
    optimizer = FlashRAMOptimizer(program)

    def give_up(problem, max_nodes=400, **kwargs):
        return ILPResult(status="iteration_limit")

    monkeypatch.setattr(optimizer_module, "solve_ilp", give_up)
    solution = optimizer.select_blocks()
    assert solution.solver_status == "fallback-empty:iteration_limit"
    assert solution.ram_blocks == set()
    # The empty placement is genuinely feasible: the estimate is the baseline.
    assert solution.estimate.energy_j == pytest.approx(solution.baseline_energy_j)


def test_optimizer_surfaces_solver_stats():
    program = compile_source(LOOP_SOURCE, CompileOptions.for_level("O2"))
    solution = FlashRAMOptimizer(program).select_blocks()
    stats = solution.solver_stats
    assert stats["nodes_explored"] >= 1
    assert stats["lp_pivots"] > 0
    assert stats["cold_solves"] >= 1
    assert stats["unresolved_nodes"] == 0
