"""Experiment result records and the JSON-backed :class:`ResultStore`.

:class:`BenchmarkRun` is the unit of measurement of the whole evaluation (one
benchmark at one optimization level, baseline and optionally optimized); it
used to live in ``repro.evaluation.pipeline`` and is re-exported from there
for compatibility.  :class:`ResultStore` serializes grids of
``BenchmarkRun``/``SuiteRow`` records to JSON so independent runs (sequential
vs parallel, decode-once vs interpreted, before vs after a change) can be
compared bitwise: Python's ``repr``-based float serialization round-trips
exactly, so equal floats stay equal through the store.

Stores come in two layouts sharing one schema-versioned container
(``{"schema": N, "meta": ..., "records": [...]}``):

* **plain** stores (:meth:`ResultStore.save` / :meth:`ResultStore.load`)
  keep records in caller order — one file per figure/benchmark artifact;
* **keyed** stores (:meth:`ResultStore.save_keyed` /
  :meth:`ResultStore.append_keyed` / :meth:`ResultStore.merge`) require every
  record to carry a stable identity field (a sweep ``cell_key``), keep the
  records sorted by that key, and combine deterministically: merging the
  disjoint shards of a sweep reproduces the monolithic store byte for byte.

Every write goes through a same-directory temp file and ``os.replace``, so an
interrupted run can never leave a truncated store that a resume would
silently trust — a reader sees either the old complete file or the new one.

Rewriting the whole (sorted, canonical) store per append is O(store) — fine
for one final write, far too slow for the periodic checkpoints of a long
distributed run.  Keyed stores therefore also support a **journal** sidecar
(``<name>.journal``): :meth:`ResultStore.append_journal` appends one compact
JSON line per record in O(batch), and :meth:`ResultStore.compact_journal`
folds the journal into the canonical sorted store in a single O(store)
rewrite at the end.  A torn trailing line (the only damage an interrupted
append can cause) is detected and ignored on replay; duplicated records must
agree bitwise, exactly like :meth:`ResultStore.merge`.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.placement import PlacementSolution
from repro.sim import SimulationResult

#: Store container version written by this build.  Version 1 is the legacy
#: PR-1 layout (no ``schema`` key); version 2 adds the key and keyed stores.
STORE_SCHEMA = 2

#: Versions this build knows how to read.
READABLE_SCHEMAS = (1, STORE_SCHEMA)

#: Journal sidecar version written by this build.
JOURNAL_SCHEMA = 1

#: Meta keys that describe one *invocation* rather than the sweep itself;
#: :meth:`ResultStore.merge` ignores them when checking that shard stores
#: describe the same sweep, and recomputes ``cells`` for the merged store.
PER_RUN_META_KEYS = ("cells", "shard")


# --------------------------------------------------------------------------- #
# Atomic writes
# --------------------------------------------------------------------------- #
def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write *text* to *path* atomically (same-dir temp file + ``os.replace``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent,
        prefix=path.name + ".", suffix=".tmp", delete=False)
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path: Union[str, Path], payload: Dict) -> Path:
    """Serialize *payload* first, then write atomically (a serialization
    error therefore cannot clobber or truncate an existing file)."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return atomic_write_text(path, text)


def read_store_payload(path: Union[str, Path]) -> Dict:
    """Read one store file, rejecting unknown schema versions loudly."""
    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "records" not in payload:
        raise ValueError(f"{path}: not a result store (no 'records' array)")
    schema = payload.get("schema", 1)
    if schema not in READABLE_SCHEMAS:
        raise ValueError(
            f"{path}: unknown result-store schema {schema!r}; this build reads "
            f"schemas {list(READABLE_SCHEMAS)} — refusing to guess at the "
            f"contents of a newer/foreign store")
    return payload


@dataclass
class BenchmarkRun:
    """Everything measured for one benchmark at one optimization level."""

    name: str
    opt_level: str
    baseline: SimulationResult
    optimized: Optional[SimulationResult] = None
    solution: Optional[PlacementSolution] = None
    frequency_mode: str = "static"
    #: Static-vs-profiled ``F_b`` fidelity fields (flat JSON-safe dict from
    #: :func:`repro.engine.engine.frequency_fidelity`); None for baselines.
    fb_report: Optional[Dict] = None

    @property
    def energy_change(self) -> float:
        """Relative energy change (negative = saving), e.g. -0.22 for -22 %."""
        if self.optimized is None:
            return 0.0
        return self.optimized.energy_j / self.baseline.energy_j - 1.0

    @property
    def time_change(self) -> float:
        if self.optimized is None:
            return 0.0
        return self.optimized.cycles / self.baseline.cycles - 1.0

    @property
    def power_change(self) -> float:
        if self.optimized is None:
            return 0.0
        return (self.optimized.average_power_w / self.baseline.average_power_w) - 1.0

    @property
    def ke(self) -> float:
        """The case-study energy factor k_e."""
        return 1.0 + self.energy_change

    @property
    def kt(self) -> float:
        """The case-study time factor k_t."""
        return 1.0 + self.time_change


# --------------------------------------------------------------------------- #
# Record construction
# --------------------------------------------------------------------------- #
def simulation_record(result: SimulationResult) -> Dict:
    """Flat JSON-safe record of one simulation (profile omitted)."""
    return {
        "return_value": result.return_value,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "energy_j": result.energy_j,
        "time_s": result.time_s,
        "cycles_by_section": dict(result.cycles_by_section),
    }


def run_record(run: BenchmarkRun) -> Dict:
    """Flat JSON-safe record of one :class:`BenchmarkRun`."""
    record = {
        "name": run.name,
        "opt_level": run.opt_level,
        "frequency_mode": run.frequency_mode,
        "baseline": simulation_record(run.baseline),
        "optimized": (simulation_record(run.optimized)
                      if run.optimized is not None else None),
        "energy_change": run.energy_change,
        "time_change": run.time_change,
        "power_change": run.power_change,
    }
    if run.solution is not None:
        record["ram_blocks"] = sorted(run.solution.ram_blocks)
        record["instrumented"] = sorted(run.solution.instrumented)
        record["solver"] = run.solution.solver
    if run.fb_report is not None:
        record.update(run.fb_report)
    return record


def _index_records(records: Iterable[Dict], key_field: str) -> Dict[str, Dict]:
    """Index *records* by *key_field*, rejecting missing keys and conflicts."""
    indexed: Dict[str, Dict] = {}
    for record in records:
        key = record.get(key_field)
        if not isinstance(key, str) or not key:
            raise ValueError(
                f"record missing the {key_field!r} identity field; keyed "
                f"stores require every record to be content-addressed")
        if key in indexed and indexed[key] != record:
            raise ValueError(
                f"conflicting records for {key_field}={key}: the same cell "
                f"produced different measurements")
        indexed[key] = record
    return indexed


class ResultStore:
    """Directory of named JSON result files for cross-run comparison."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def path_for(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def _payload(self, name: str) -> Dict:
        return read_store_payload(self.path_for(name))

    # ------------------------------------------------------------------ #
    # Plain stores
    # ------------------------------------------------------------------ #
    def save(self, name: str, records: Sequence[Dict],
             meta: Optional[Dict] = None) -> Path:
        """Write *records* (flat dicts) under *name*; returns the file path."""
        payload = {"schema": STORE_SCHEMA, "meta": meta or {},
                   "records": list(records)}
        return atomic_write_json(self.path_for(name), payload)

    def load(self, name: str) -> List[Dict]:
        """Load the records previously saved under *name*."""
        return self._payload(name)["records"]

    def load_meta(self, name: str) -> Dict:
        return self._payload(name).get("meta", {})

    # ------------------------------------------------------------------ #
    # Keyed stores
    # ------------------------------------------------------------------ #
    def save_keyed(self, name: str, records: Iterable[Dict],
                   meta: Optional[Dict] = None,
                   key_field: str = "cell_key") -> Path:
        """Write a keyed store: records sorted by *key_field*, meta stamped
        with the record count.  The sorted order is what makes independently
        produced stores (shards, resumes) combine byte-identically."""
        indexed = _index_records(records, key_field)
        meta = dict(meta or {})
        meta["cells"] = len(indexed)
        payload = {"schema": STORE_SCHEMA, "keyed_by": key_field, "meta": meta,
                   "records": [indexed[key] for key in sorted(indexed)]}
        return atomic_write_json(self.path_for(name), payload)

    def _keyed_payload(self, name: str) -> tuple:
        payload = self._payload(name)
        key_field = payload.get("keyed_by")
        if not key_field:
            raise ValueError(f"{self.path_for(name)}: not a keyed store "
                             f"(missing 'keyed_by')")
        return payload, key_field

    def load_keyed(self, name: str) -> Dict[str, Dict]:
        """The store's records as an ordered ``{key: record}`` mapping."""
        payload, key_field = self._keyed_payload(name)
        return {record[key_field]: record for record in payload["records"]}

    def append_keyed(self, name: str, records: Iterable[Dict],
                     meta: Optional[Dict] = None,
                     key_field: str = "cell_key") -> Path:
        """Add *records* to an existing keyed store (atomic rewrite).

        Duplicate keys must carry bitwise-identical records — a resumed sweep
        may legitimately recompute a cell, but it must reproduce the stored
        measurement exactly.  *meta* (when given) replaces the stored meta;
        ``cells`` is always restamped.
        """
        if not self.path_for(name).exists():
            return self.save_keyed(name, records, meta=meta,
                                   key_field=key_field)
        payload, existing_field = self._keyed_payload(name)
        if existing_field != key_field:
            raise ValueError(
                f"{self.path_for(name)}: keyed by {existing_field!r}, "
                f"cannot append records keyed by {key_field!r}")
        combined = _index_records(list(payload["records"]) + list(records),
                                  key_field)
        meta = dict(meta if meta is not None else payload.get("meta", {}))
        return self.save_keyed(name, combined.values(), meta=meta,
                               key_field=key_field)

    # ------------------------------------------------------------------ #
    # Journal sidecar: O(batch) appends, one O(store) compaction
    # ------------------------------------------------------------------ #
    def journal_path(self, name: str) -> Path:
        return self.root / f"{name}.journal"

    def append_journal(self, name: str, records: Iterable[Dict],
                       meta: Optional[Dict] = None,
                       key_field: str = "cell_key") -> Path:
        """Append *records* to the journal sidecar of keyed store *name*.

        Cost is O(batch): one compact JSON line per record, appended to the
        journal file (a header line stamps the key field and sweep meta when
        the journal is created).  The canonical sorted store is untouched
        until :meth:`compact_journal` folds the journal in.  *meta* is only
        used when the journal is created; an existing header wins.
        """
        records = list(records)
        for record in records:
            key = record.get(key_field)
            if not isinstance(key, str) or not key:
                raise ValueError(
                    f"record missing the {key_field!r} identity field; "
                    f"journals require every record to be content-addressed")
        path = self.journal_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines: List[str] = []
        if not path.exists():
            lines.append(json.dumps(
                {"journal": JOURNAL_SCHEMA, "keyed_by": key_field,
                 "meta": meta or {}},
                sort_keys=True, separators=(",", ":")))
        lines.extend(json.dumps(record, sort_keys=True, separators=(",", ":"))
                     for record in records)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
            handle.flush()
            os.fsync(handle.fileno())
        return path

    def load_journal(self, name: str) -> tuple:
        """Replay the journal of *name*: returns ``(header, records_by_key)``.

        A torn **trailing** line — the only damage an interrupted append can
        leave behind — is ignored; a malformed line anywhere else is
        corruption and raises.  Duplicate keys must agree bitwise.  A
        journal whose very first append was interrupted (zero bytes, or a
        single torn line) replays as empty — ``(None, {})`` — so the
        advertised crash-recovery path never trips over its own wreckage.
        """
        path = self.journal_path(name)
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines:
            return None, {}  # crash before the header ever hit the disk

        def parse(index: int, line: str) -> Optional[Dict]:
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    return None  # torn trailing line from an interrupted append
                raise ValueError(
                    f"{path}: corrupt journal line {index + 1} (only the "
                    f"final line may be torn by an interrupted append)")

        header = parse(0, lines[0])
        if header is None and len(lines) == 1:
            return None, {}      # the sole (header) line was torn mid-write
        if (header is None or not isinstance(header, dict)
                or header.get("journal") != JOURNAL_SCHEMA
                or "keyed_by" not in header):
            raise ValueError(
                f"{path}: unrecognized journal header; this build writes "
                f"journal version {JOURNAL_SCHEMA}")
        parsed = [parse(index, line)
                  for index, line in enumerate(lines[1:], start=1)]
        records = [record for record in parsed if record is not None]
        return header, _index_records(records, header["keyed_by"])

    def compact_journal(self, name: str,
                        merge_store: bool = True) -> Optional[Path]:
        """Fold the journal of *name* into its canonical keyed store.

        One O(store) rewrite replaces the journal's many O(batch) appends.
        With ``merge_store=True`` the journal's records join whatever the
        store already holds (the resume/checkpoint case — duplicates must
        agree bitwise, as in :meth:`merge`); with ``merge_store=False`` the
        journal's records *replace* the store (a fresh, non-resumed run
        whose output directory may hold an older sweep).  The journal file
        is removed once the store write has committed, so a crash between
        the two leaves only bitwise-identical duplicates behind.  An
        effectively-empty journal (first append interrupted) is simply
        removed; the return value is the store path, or ``None`` when
        neither journal records nor a store exist.
        """
        if not self.journal_path(name).exists():
            if self.path_for(name).exists():
                return self.path_for(name)
            raise FileNotFoundError(
                f"{self.journal_path(name)}: no journal to compact")
        header, records = self.load_journal(name)
        if header is None:
            os.unlink(self.journal_path(name))
            return (self.path_for(name) if self.path_for(name).exists()
                    else None)
        key_field = header["keyed_by"]
        meta = header.get("meta") or {}
        if merge_store and self.path_for(name).exists():
            path = self.append_keyed(name, records.values(), meta=meta,
                                     key_field=key_field)
        else:
            path = self.save_keyed(name, records.values(), meta=meta,
                                   key_field=key_field)
        os.unlink(self.journal_path(name))
        return path

    def merge(self, name: str, sources: Sequence[Union[str, Path]],
              require_disjoint: bool = False) -> Dict:
        """Merge keyed stores (files or store directories) into *name*.

        Validates that every source describes the same sweep (metas must
        agree once per-run keys — shard assignment, cell counts — are
        stripped) and that any duplicated cell agrees bitwise across sources;
        ``require_disjoint=True`` additionally makes *any* duplicate an error
        (the shard→merge CI contract).  Returns merge statistics.
        """
        if not sources:
            raise ValueError("merge requires at least one source store")
        merged: Dict[str, Dict] = {}
        common_meta: Optional[Dict] = None
        first_path: Optional[Path] = None
        key_field: Optional[str] = None
        duplicates = 0
        for source in sources:
            path = Path(source)
            if path.is_dir():
                path = path / f"{name}.json"
            payload = read_store_payload(path)
            field_name = payload.get("keyed_by")
            if not field_name:
                raise ValueError(f"{path}: not a keyed store, cannot merge")
            if key_field is None:
                key_field = field_name
            elif field_name != key_field:
                raise ValueError(f"{path}: keyed by {field_name!r} but "
                                 f"{first_path} is keyed by {key_field!r}")
            meta = {k: v for k, v in payload.get("meta", {}).items()
                    if k not in PER_RUN_META_KEYS}
            if common_meta is None:
                common_meta, first_path = meta, path
            elif meta != common_meta:
                raise ValueError(
                    f"{path}: sweep meta differs from {first_path}; these "
                    f"stores come from different sweeps and must not be "
                    f"merged")
            for record in payload["records"]:
                key = record[key_field]
                if key in merged:
                    duplicates += 1
                    if require_disjoint:
                        raise ValueError(
                            f"{path}: cell {key} already present in another "
                            f"source (shards are required to be disjoint)")
                    if merged[key] != record:
                        raise ValueError(
                            f"{path}: conflicting records for cell {key} "
                            f"across sources")
                else:
                    merged[key] = record
        dest = self.save_keyed(name, merged.values(), meta=common_meta,
                               key_field=key_field)
        return {"path": str(dest), "sources": len(sources),
                "records": len(merged), "duplicates": duplicates}

    # ------------------------------------------------------------------ #
    def save_runs(self, name: str, runs: Sequence[BenchmarkRun],
                  meta: Optional[Dict] = None) -> Path:
        return self.save(name, [run_record(run) for run in runs], meta=meta)


def records_equal(first: Sequence[Dict], second: Sequence[Dict]) -> bool:
    """Exact (bitwise for floats) equality of two record lists."""
    return list(first) == list(second)
