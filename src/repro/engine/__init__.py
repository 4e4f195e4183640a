"""Experiment engine: cached, parallel, decode-once evaluation pipeline.

This subsystem is the single path every figure, benchmark and example uses to
run compile→optimize→simulate experiments:

* :class:`ProgramCache` — content-addressed compile-once cache that also
  names each compiled program by a digest (`repro.engine.cache`);
* :class:`ExperimentEngine` / :class:`ExperimentSpec` — single experiments and
  parallel grids with deterministic ordering; each engine solves every
  distinct (program digest, placement config, energy model) once, simulates
  every distinct (program digest, timing model, RAM set) once and prices the
  run under each cell's energy model (`repro.engine.engine`);
* :class:`BenchmarkRun` / :class:`ResultStore` — result records and JSON
  persistence for cross-run comparison (`repro.engine.results`).

See ``DESIGN.md`` for the architecture and the invariants (bitwise-identical
results across sequential/parallel and decode-once/interpreted execution,
and between a memoised run priced under a model and a fresh simulation).
"""

from repro.engine.cache import (
    CacheStats,
    ProgramCache,
    default_cache,
    options_fingerprint,
    program_key,
)
from repro.engine.engine import (
    ExperimentEngine,
    ExperimentSpec,
    default_engine,
)
from repro.engine.results import (
    JOURNAL_SCHEMA,
    STORE_SCHEMA,
    BenchmarkRun,
    ResultStore,
    atomic_write_json,
    atomic_write_text,
    read_store_payload,
    records_equal,
    run_record,
    simulation_record,
)

__all__ = [
    "CacheStats",
    "ProgramCache",
    "default_cache",
    "options_fingerprint",
    "program_key",
    "ExperimentEngine",
    "ExperimentSpec",
    "default_engine",
    "BenchmarkRun",
    "ResultStore",
    "JOURNAL_SCHEMA",
    "STORE_SCHEMA",
    "atomic_write_json",
    "atomic_write_text",
    "read_store_payload",
    "records_equal",
    "run_record",
    "simulation_record",
]
