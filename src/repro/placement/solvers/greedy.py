"""Greedy knapsack-style baseline placement heuristic.

Used as the comparison baseline for the solver-quality ablation: blocks are
ranked by modelled energy saving per byte of RAM and added while the RAM and
execution-time constraints (Equations 7 and 9) stay satisfied.  Unlike the
ILP, the greedy pass cannot discover the "cluster small joining blocks to
avoid instrumentation" behaviour the paper highlights.

Candidate evaluation uses :class:`~repro.placement.cost_model.IncrementalPlacement`,
so each trial costs O(deg(block)) instead of a full O(n) model evaluation.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.placement.cost_model import IncrementalPlacement, PlacementCostModel


def _ranked_candidates(model: PlacementCostModel) -> List[str]:
    """Eligible blocks with positive modelled saving, best saving/byte first.

    The saving of each block is computed exactly once and reused as the sort
    key; ties keep the model's parameter order (the sort is stable).
    """
    scored: List[Tuple[str, float]] = []
    for key in model.eligible_keys():
        params = model.parameters[key]
        if params.frequency <= 0 or params.size == 0:
            continue
        saving = (model.block_energy(params, False, False)
                  - model.block_energy(params, True, True))
        if saving > 0:
            scored.append((key, saving / max(params.size, 1)))
    scored.sort(key=lambda entry: entry[1], reverse=True)
    return [key for key, _ in scored]


def greedy_placement(model: PlacementCostModel, r_spare: float,
                     x_limit: float) -> Set[str]:
    """Select a feasible block set by greedy energy-per-byte ranking."""
    placement = IncrementalPlacement(model)
    current_energy = placement.energy_j
    for key in _ranked_candidates(model):
        energy, time_ratio, ram_bytes = placement.preview_totals(key)
        if ram_bytes > r_spare or time_ratio > x_limit:
            continue
        if energy < current_energy:
            placement.add(key)
            current_energy = placement.energy_j
    return set(placement.ram)
