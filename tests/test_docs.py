"""Documentation gates: docstrings everywhere, and docs that execute.

Three guarantees, enforced on every run of the tier-1 suite:

* every ``repro.*`` package (and every module inside them) imports cleanly
  and carries a non-trivial module docstring;
* the most-used entry points — the names the README and DESIGN.md tell
  people to call — document themselves;
* the runnable examples embedded in README.md and DESIGN.md actually run
  (``doctest`` over the ``>>>`` fences), so the docs cannot silently rot.
"""

import doctest
import importlib
import os
import pkgutil

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Minimum docstring length: long enough to force a real sentence, short
#: enough not to police style.
MIN_DOC = 20


def iter_module_names():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", iter_module_names())
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) >= MIN_DOC, \
        f"{name} has no module docstring"


#: The public faces of the system: every name the README/DESIGN walkthroughs
#: tell people to use must explain itself.
ENTRY_POINTS = [
    ("repro.codegen", "compile_source"),
    ("repro.codegen", "CompileOptions"),
    ("repro.sim", "Simulator"),
    ("repro.sim", "EnergyModel"),
    ("repro.sim", "TimingSpec"),
    ("repro.placement", "FlashRAMOptimizer"),
    ("repro.placement", "PlacementConfig"),
    ("repro.engine", "ExperimentEngine"),
    ("repro.engine", "ExperimentSpec"),
    ("repro.engine", "ProgramCache"),
    ("repro.engine", "ResultStore"),
    ("repro.explore", "SweepSpec"),
    ("repro.explore", "execute_sweep"),
    ("repro.explore", "run_sweep"),
    ("repro.explore", "sweep_report"),
    ("repro.explore", "mark_pareto"),
    ("repro.explore", "cell_key"),
    ("repro.distrib", "SweepService"),
    ("repro.distrib", "run_worker"),
    ("repro.distrib", "adaptive_batch"),
    ("repro.distrib", "schedule_score"),
    ("repro.distrib", "submit_sweep"),
    ("repro.distrib", "sweep_status"),
    ("repro.distrib", "cancel_sweep"),
    ("repro.telemetry", "Telemetry"),
    ("repro.telemetry", "configure_telemetry"),
    ("repro.telemetry", "RateEwma"),
    ("repro.telemetry", "render_prometheus"),
    ("repro.telemetry", "trace_stats"),
    ("repro.telemetry", "render_trace_stats"),
    ("repro.analysis", "verify_machine_program"),
]


@pytest.mark.parametrize("module_name,attr",
                         ENTRY_POINTS, ids=[f"{m}.{a}" for m, a in ENTRY_POINTS])
def test_entry_point_has_docstring(module_name, attr):
    obj = getattr(importlib.import_module(module_name), attr)
    assert obj.__doc__ and len(obj.__doc__.strip()) >= MIN_DOC, \
        f"{module_name}.{attr} has no docstring"


@pytest.mark.parametrize("filename", ["README.md", "DESIGN.md"])
def test_markdown_doctests_execute(filename):
    path = os.path.join(REPO_ROOT, filename)
    results = doctest.testfile(path, module_relative=False, verbose=False)
    assert results.attempted > 0, f"{filename} has no executable examples"
    assert results.failed == 0, f"{filename}: {results.failed} doctest failures"


def test_timing_spec_class_doctests():
    """The TimingSpec docstring examples are themselves executable."""
    import repro.sim.pipeline as pipeline
    results = doctest.testmod(pipeline, verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
