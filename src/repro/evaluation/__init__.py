"""Evaluation harness: one module per figure / reported number of the paper."""

from repro.evaluation.pipeline import (
    BenchmarkRun,
    run_optimized_benchmark,
)
from repro.evaluation.figure1 import instruction_power_rows
from repro.evaluation.figure2 import motivating_example_report
from repro.evaluation.figure5 import evaluate_suite, summarize, suite_specs, SuiteRow
from repro.evaluation.figure6 import design_space, solver_trajectories
from repro.evaluation.figure9 import period_sweep
from repro.evaluation.case_study import case_study_report

__all__ = [
    "BenchmarkRun",
    "run_optimized_benchmark",
    "instruction_power_rows",
    "motivating_example_report",
    "evaluate_suite",
    "summarize",
    "suite_specs",
    "SuiteRow",
    "design_space",
    "solver_trajectories",
    "period_sweep",
    "case_study_report",
]
