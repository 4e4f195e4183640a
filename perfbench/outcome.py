"""Per-cell outcome checks behind the benchmark's ``failed`` count.

Every record must

(a) on seed 0, match the committed ``expected/<grid>.json`` digest on the
    outcome fields only (a record field added later does not fail it);
(b) certify Eq. 7-9 from the record alone: ``ram_bytes <= r_spare_derived``
    and ``model_time_ratio <= x_limit`` (with the cost model's own 1e-9
    tolerance);
(c) carry no ``fallback-empty:*`` solver status.

Other seeds use (b) and (c); :func:`outcome_digest` lets two commits be
compared on any seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

OUTCOME_FIELDS = ("ram_blocks", "energy_j", "cycles", "baseline_energy_j",
                  "baseline_cycles")

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def outcome(record: Dict) -> List:
    return [record[field] for field in OUTCOME_FIELDS]


def expected_path(grid: str) -> Path:
    return EXPECTED_DIR / f"{grid}.json"


def load_expected(grid: str) -> Dict[str, List]:
    with open(expected_path(grid), encoding="utf-8") as handle:
        return json.load(handle)["cells"]


def write_expected(grid: str, records: Sequence[Dict]) -> Path:
    path = expected_path(grid)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = ",\n".join(f"  {json.dumps(record['cell_key'])}: "
                      f"{json.dumps(outcome(record))}"
                      for record in sorted(records,
                                           key=lambda r: r["cell_key"]))
    path.write_text(f'{{"fields": {json.dumps(list(OUTCOME_FIELDS))},\n'
                    f' "cells": {{\n{rows}\n}}}}\n', encoding="utf-8")
    return path


def check_record(record: Dict,
                 expected: Optional[Dict[str, List]]) -> List[str]:
    """Every way *record* fails the outcome check (empty when it passes)."""
    key = record.get("cell_key", "?")
    problems = []
    if expected is not None:
        want = expected.get(key)
        if want is None:
            problems.append(f"{key}: not in the expected grid")
        elif outcome(record) != want:
            problems.append(f"{key}: outcome {outcome(record)} != {want}")
    if record["ram_bytes"] > record["r_spare_derived"]:
        problems.append(f"{key}: Eq. 7 violated, ram_bytes "
                        f"{record['ram_bytes']} > {record['r_spare_derived']}")
    if (record["model_time_ratio"] is not None
            and record["model_time_ratio"] > record["x_limit"] + 1e-9):
        problems.append(f"{key}: Eq. 9 violated, model time ratio "
                        f"{record['model_time_ratio']} > {record['x_limit']}")
    if str(record["solver_status"]).startswith("fallback-empty:"):
        problems.append(f"{key}: solver status {record['solver_status']}")
    return problems


def check_records(records: Sequence[Dict], cells: int,
                  expected: Optional[Dict[str, List]]) -> List[str]:
    """Problems with one pass's records; a missing cell is a problem too."""
    problems = [problem for record in records
                for problem in check_record(record, expected)]
    if len(records) != cells:
        problems.append(f"{len(records)} records for {cells} cells")
    return problems


def failed_cells(problems: Sequence[str], cells: int) -> int:
    keys = {problem.split(":", 1)[0] for problem in problems}
    return min(len(keys), cells)


def outcome_digest(records: Sequence[Dict]) -> str:
    """SHA-256 over every cell's outcome fields, in key order."""
    rows = sorted((record["cell_key"], outcome(record)) for record in records)
    blob = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
