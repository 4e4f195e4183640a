"""Resume/shard/merge/report semantics of the sweep persistence subsystem.

The contract under test: a sweep run as N shards, merged, is bitwise
identical (file bytes, not just values) to the same sweep run monolithically;
resuming an interrupted sweep re-simulates only the missing cells; and the
Figure 5/6 report is a pure function of the stored records.
"""

import json

import pytest

from repro.engine import (
    STORE_SCHEMA,
    ExperimentEngine,
    ProgramCache,
    ResultStore,
)
from repro.engine.engine import ExperimentEngine as EngineClass
from repro.explore import (
    SweepRecheckError,
    SweepSpec,
    cell_key,
    execute_sweep,
    parse_shard,
    report_from_store,
    report_scripts,
    report_tables,
    shard_cells,
    shard_index,
    sweep_report,
    write_report,
)

#: The sweep all simulation-backed tests share (4 cells, ~1 s total).
TEST_SWEEP = SweepSpec(benchmarks=("crc32", "fdct"), x_limits=(1.1, 1.5))


def fresh_engine() -> ExperimentEngine:
    return ExperimentEngine(cache=ProgramCache())


@pytest.fixture(scope="module")
def monolithic(tmp_path_factory):
    """One clean monolithic run of TEST_SWEEP, stored; reused read-only."""
    store = ResultStore(tmp_path_factory.mktemp("mono"))
    summary = execute_sweep(TEST_SWEEP, store=store, engine=fresh_engine(),
                            max_workers=1)
    return store, summary


# --------------------------------------------------------------------------- #
# Cell keys
# --------------------------------------------------------------------------- #
def test_cell_key_is_stable_and_enumeration_order_independent():
    cells = TEST_SWEEP.cells()
    # Same knobs enumerated in a different axis order: same key set.
    reordered = SweepSpec(benchmarks=("fdct", "crc32"), x_limits=(1.5, 1.1))
    assert {c.key for c in cells} == {c.key for c in reordered.cells()}
    # Distinct cells get distinct keys; keys are 16 hex chars.
    assert len({c.key for c in cells}) == len(cells)
    for cell in cells:
        assert len(cell.key) == 16
        int(cell.key, 16)
        assert cell.key == cell_key(cell)  # property and function agree


def test_cell_key_distinguishes_every_knob():
    base = SweepSpec(benchmarks=("crc32",)).cells()[0]
    variants = [
        SweepSpec(benchmarks=("fdct",)).cells()[0],
        SweepSpec(benchmarks=("crc32",), opt_levels=("Os",)).cells()[0],
        SweepSpec(benchmarks=("crc32",), x_limits=(1.7,)).cells()[0],
        SweepSpec(benchmarks=("crc32",), r_spares=(512,)).cells()[0],
        SweepSpec(benchmarks=("crc32",), flash_ram_ratios=(2.5,)).cells()[0],
        SweepSpec(benchmarks=("crc32",), solvers=("greedy",)).cells()[0],
        SweepSpec(benchmarks=("crc32",),
                  frequency_modes=("profile",)).cells()[0],
    ]
    keys = {base.key} | {v.key for v in variants}
    assert len(keys) == len(variants) + 1


# --------------------------------------------------------------------------- #
# Sharding
# --------------------------------------------------------------------------- #
def test_shard_union_covers_each_cell_exactly_once():
    sweep = SweepSpec(benchmarks=("crc32", "fdct", "2dfir"),
                      x_limits=(1.1, 1.5, 2.0),
                      flash_ram_ratios=(None, 2.5))
    cells = sweep.cells()
    all_keys = {c.key for c in cells}
    for count in (1, 2, 3, 5, 7):
        shards = [shard_cells(cells, index, count) for index in range(count)]
        seen = [c.key for shard in shards for c in shard]
        assert sorted(seen) == sorted(all_keys)          # exactly once
        for index, shard in enumerate(shards):
            for cell in shard:
                assert shard_index(cell.key, count) == index


def test_shard_validation_and_parse():
    cells = TEST_SWEEP.cells()
    with pytest.raises(ValueError):
        shard_cells(cells, 2, 2)
    with pytest.raises(ValueError):
        shard_cells(cells, 0, 0)
    assert parse_shard("0/3") == (0, 3)
    assert parse_shard("2/3") == (2, 3)
    for bad in ("3/3", "-1/3", "1", "a/b", "1/0"):
        with pytest.raises(ValueError):
            parse_shard(bad)


# --------------------------------------------------------------------------- #
# Keyed store container (no simulation)
# --------------------------------------------------------------------------- #
def record(key, **extra):
    base = {"cell_key": key, "benchmark": "b", "energy_j": 1.0,
            "time_ratio": 1.2, "ram_bytes": 64}
    base.update(extra)
    return base


def test_keyed_store_sorts_appends_and_rejects_conflicts(tmp_path):
    store = ResultStore(tmp_path)
    store.save_keyed("s", [record("bb"), record("aa")], meta={"x": 1})
    assert list(store.load_keyed("s")) == ["aa", "bb"]
    assert store.load_meta("s") == {"x": 1, "cells": 2}

    # Append new + identical duplicate: fine.
    store.append_keyed("s", [record("cc"), record("aa")])
    assert list(store.load_keyed("s")) == ["aa", "bb", "cc"]
    assert store.load_meta("s")["cells"] == 3

    # Conflicting duplicate: hard error.
    with pytest.raises(ValueError, match="conflicting"):
        store.append_keyed("s", [record("aa", energy_j=2.0)])
    with pytest.raises(ValueError, match="identity"):
        store.save_keyed("t", [{"benchmark": "b"}])
    with pytest.raises(ValueError, match="not a keyed store"):
        store.save("plain", [record("aa")])
        store.load_keyed("plain")


def test_store_rejects_unknown_schema_and_truncation(tmp_path):
    store = ResultStore(tmp_path)
    store.save("ok", [{"a": 1}])
    payload = json.loads(store.path_for("ok").read_text())
    assert payload["schema"] == STORE_SCHEMA
    assert store.load("ok") == [{"a": 1}]

    # Legacy (schema-less) stores still load.
    store.path_for("legacy").write_text(
        json.dumps({"meta": {}, "records": [{"a": 2}]}))
    assert store.load("legacy") == [{"a": 2}]

    # Unknown schema: clear refusal, not silent trust.
    store.path_for("future").write_text(
        json.dumps({"schema": 99, "meta": {}, "records": []}))
    with pytest.raises(ValueError, match="unknown result-store schema 99"):
        store.load("future")

    # A truncated file raises instead of yielding partial records.
    text = store.path_for("ok").read_text()
    store.path_for("cut").write_text(text[:len(text) // 2])
    with pytest.raises(json.JSONDecodeError):
        store.load("cut")


def test_journal_appends_without_rewriting_the_store(tmp_path):
    store = ResultStore(tmp_path)
    store.save_keyed("s", [record("aa")], meta={"x": 1})
    before = store.path_for("s").read_bytes()

    # Appends are O(batch): one line per record, store file untouched.
    store.append_journal("s", [record("bb")], meta={"x": 1})
    size_after_one = store.journal_path("s").stat().st_size
    store.append_journal("s", [record("cc"), record("dd")])
    assert store.path_for("s").read_bytes() == before
    assert store.journal_path("s").stat().st_size > size_after_one

    header, records = store.load_journal("s")
    assert header["keyed_by"] == "cell_key" and header["meta"] == {"x": 1}
    assert list(records) == ["bb", "cc", "dd"]

    # Compaction folds the journal into the canonical sorted store and
    # removes it; the result equals one big save_keyed.
    store.compact_journal("s")
    assert not store.journal_path("s").exists()
    reference = ResultStore(tmp_path / "ref")
    reference.save_keyed("s", [record(k) for k in ("aa", "bb", "cc", "dd")],
                         meta={"x": 1})
    assert store.path_for("s").read_bytes() == \
        reference.path_for("s").read_bytes()


def test_journal_replace_mode_and_validation(tmp_path):
    store = ResultStore(tmp_path)
    store.save_keyed("s", [record("old")], meta={})
    store.append_journal("s", [record("new")], meta={})
    # merge_store=False: the journal replaces the store (fresh-run semantics).
    store.compact_journal("s", merge_store=False)
    assert list(store.load_keyed("s")) == ["new"]

    # Records without the identity field are rejected before touching disk.
    with pytest.raises(ValueError, match="identity"):
        store.append_journal("s", [{"benchmark": "b"}])
    # Conflicting duplicates surface at replay, like merge().
    store.append_journal("s", [record("x"), record("x", energy_j=9.0)])
    with pytest.raises(ValueError, match="conflicting"):
        store.load_journal("s")


def test_journal_tolerates_torn_trailing_line_only(tmp_path):
    store = ResultStore(tmp_path)
    store.append_journal("s", [record("aa"), record("bb")], meta={"m": 1})
    path = store.journal_path("s")

    # A torn trailing line (interrupted append) is ignored on replay.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"cell_key": "cc", "trunc')
    header, records = store.load_journal("s")
    assert list(records) == ["aa", "bb"]

    # Corruption anywhere else is an error, not silent data loss.
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:10]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="corrupt journal line 2"):
        store.load_journal("s")

    # An unrecognized header is refused loudly.
    path.write_text('{"journal": 99, "keyed_by": "cell_key", "meta": {}}\n')
    with pytest.raises(ValueError, match="journal header"):
        store.load_journal("s")

    # An interrupted FIRST append (zero bytes, or one torn line) replays as
    # an empty journal, and compaction simply clears it — the advertised
    # crash-recovery path must never trip over its own wreckage.
    for wreckage in ("", '{"journal": 1, "keyed_by"'):
        path.write_text(wreckage)
        assert store.load_journal("s") == (None, {})
    assert store.compact_journal("s") is None
    assert not path.exists()


def test_checkpointed_sweep_matches_monolithic_and_resumes(tmp_path,
                                                           monolithic,
                                                           monkeypatch):
    mono_store, _ = monolithic
    store = ResultStore(tmp_path / "ckpt")
    summary = execute_sweep(TEST_SWEEP, store=store, checkpoint_every=1,
                            engine=fresh_engine(), max_workers=1)
    assert summary["computed"] == TEST_SWEEP.size
    assert not store.journal_path("sweep").exists()  # compacted away
    assert store.path_for("sweep").read_bytes() == \
        mono_store.path_for("sweep").read_bytes()

    # A crash between checkpoints leaves a journal; --resume folds it in
    # and recomputes only what was never journaled.
    crashed = ResultStore(tmp_path / "crashed")
    full = mono_store.load_keyed("sweep")
    keys = sorted(full)
    crashed.append_journal("sweep", [full[k] for k in keys[:3]],
                           meta=TEST_SWEEP.meta())
    computed = []
    real_run_cell = EngineClass.run_cell

    def counting_run_cell(self, spec, energy_model=None):
        computed.append(spec)
        return real_run_cell(self, spec, energy_model)

    monkeypatch.setattr(EngineClass, "run_cell", counting_run_cell)
    summary = execute_sweep(TEST_SWEEP, store=crashed, resume=True,
                            engine=fresh_engine(), max_workers=1)
    assert summary["skipped"] == 3 and summary["computed"] == 1
    assert len(computed) == 1
    assert crashed.path_for("sweep").read_bytes() == \
        mono_store.path_for("sweep").read_bytes()


def test_resume_rejects_foreign_store_or_journal_before_compacting(
        tmp_path, monolithic):
    mono_store, _ = monolithic
    full = mono_store.load_keyed("sweep")

    # A store from a DIFFERENT sweep plus a journal from THIS sweep: the
    # axes check must fire before the journal is folded in — compacting
    # first would merge foreign records and overwrite the very meta the
    # check inspects.
    store = ResultStore(tmp_path / "mixed")
    store.save_keyed("sweep", [record("00ff00ff00ff00ff")],
                     meta={"benchmarks": ["other"]})
    store.append_journal("sweep", list(full.values())[:1],
                         meta=TEST_SWEEP.meta())
    before_store = store.path_for("sweep").read_bytes()
    before_journal = store.journal_path("sweep").read_bytes()
    with pytest.raises(ValueError, match="different\\s+sweeps"):
        execute_sweep(TEST_SWEEP, store=store, resume=True,
                      engine=fresh_engine(), max_workers=1)
    assert store.path_for("sweep").read_bytes() == before_store
    assert store.journal_path("sweep").read_bytes() == before_journal

    # No store, but a journal from a different sweep: refused too.
    foreign = ResultStore(tmp_path / "foreign-journal")
    foreign.append_journal("sweep", [record("00ff00ff00ff00ff")],
                           meta={"benchmarks": ["other"]})
    with pytest.raises(ValueError, match="different\\s+sweeps"):
        execute_sweep(TEST_SWEEP, store=foreign, resume=True,
                      engine=fresh_engine(), max_workers=1)


def test_fresh_run_discards_stale_journal(tmp_path, monolithic):
    mono_store, _ = monolithic
    store = ResultStore(tmp_path / "stale")
    store.append_journal("sweep", [record("deadbeefdeadbeef")],
                         meta={"not": "this sweep"})
    execute_sweep(TEST_SWEEP, store=store, engine=fresh_engine(),
                  max_workers=1, checkpoint_every=2)
    assert store.path_for("sweep").read_bytes() == \
        mono_store.path_for("sweep").read_bytes()


def test_save_is_atomic_against_serialization_failure(tmp_path):
    store = ResultStore(tmp_path)
    store.save("s", [{"a": 1}], meta={"m": 1})
    before = store.path_for("s").read_bytes()
    with pytest.raises(TypeError):
        store.save("s", [{"a": {1, 2, 3}}])  # sets are not JSON-serializable
    assert store.path_for("s").read_bytes() == before
    leftovers = [p for p in store.root.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_merge_validates_meta_disjointness_and_conflicts(tmp_path):
    meta = {"benchmarks": ["b"], "x_limits": [1.5]}
    a = ResultStore(tmp_path / "a")
    b = ResultStore(tmp_path / "b")
    a.save_keyed("sweep", [record("aa")], meta=dict(meta, shard=[0, 2]))
    b.save_keyed("sweep", [record("bb")], meta=dict(meta, shard=[1, 2]))

    dest = ResultStore(tmp_path / "merged")
    stats = dest.merge("sweep", [a.root, b.root], require_disjoint=True)
    assert stats["records"] == 2 and stats["duplicates"] == 0
    merged_meta = dest.load_meta("sweep")
    assert merged_meta == dict(meta, cells=2)            # shard keys stripped
    assert list(dest.load_keyed("sweep")) == ["aa", "bb"]

    # Overlapping identical record: allowed unless disjointness is required.
    c = ResultStore(tmp_path / "c")
    c.save_keyed("sweep", [record("aa")], meta=meta)
    stats = dest.merge("sweep", [a.root, c.root])
    assert stats["duplicates"] == 1
    with pytest.raises(ValueError, match="disjoint"):
        dest.merge("sweep", [a.root, c.root], require_disjoint=True)

    # Conflicting duplicate or foreign sweep: hard errors.
    d = ResultStore(tmp_path / "d")
    d.save_keyed("sweep", [record("aa", energy_j=9.0)], meta=meta)
    with pytest.raises(ValueError, match="conflicting"):
        dest.merge("sweep", [a.root, d.root])
    e = ResultStore(tmp_path / "e")
    e.save_keyed("sweep", [record("zz")], meta={"benchmarks": ["other"]})
    with pytest.raises(ValueError, match="different sweeps"):
        dest.merge("sweep", [a.root, e.root])


# --------------------------------------------------------------------------- #
# Shard -> merge == monolithic (real sweep, bitwise on file bytes)
# --------------------------------------------------------------------------- #
def test_sharded_merge_is_bitwise_identical_to_monolithic(tmp_path, monolithic):
    mono_store, _ = monolithic
    shard_stores = []
    for index in range(2):
        store = ResultStore(tmp_path / f"shard-{index}")
        summary = execute_sweep(TEST_SWEEP, store=store, shard=(index, 2),
                                engine=fresh_engine(), max_workers=1)
        assert summary["meta"]["shard"] == [index, 2]
        shard_stores.append(store.root)

    merged = ResultStore(tmp_path / "merged")
    stats = merged.merge("sweep", shard_stores, require_disjoint=True)
    assert stats["records"] == TEST_SWEEP.size
    assert merged.path_for("sweep").read_bytes() == \
        mono_store.path_for("sweep").read_bytes()


def test_resume_runs_only_missing_cells_and_matches_clean_run(
        tmp_path, monolithic, monkeypatch):
    mono_store, _ = monolithic
    full = mono_store.load_keyed("sweep")
    keys = sorted(full)

    # Simulate an interrupted sweep: only the first two cells made it.
    store = ResultStore(tmp_path / "resume")
    store.save_keyed("sweep", [full[k] for k in keys[:2]],
                     meta=TEST_SWEEP.meta())

    computed = []
    real_run_cell = EngineClass.run_cell

    def counting_run_cell(self, spec, energy_model=None):
        computed.append(spec)
        return real_run_cell(self, spec, energy_model)

    monkeypatch.setattr(EngineClass, "run_cell", counting_run_cell)
    summary = execute_sweep(TEST_SWEEP, store=store, resume=True,
                            engine=fresh_engine(), max_workers=1)
    assert summary["skipped"] == 2 and summary["computed"] == 2
    assert len(computed) == 2                      # only the missing cells
    assert store.path_for("sweep").read_bytes() == \
        mono_store.path_for("sweep").read_bytes()

    # Resuming a complete store computes nothing and changes nothing.
    computed.clear()
    summary = execute_sweep(TEST_SWEEP, store=store, resume=True,
                            engine=fresh_engine(), max_workers=1)
    assert summary["computed"] == 0 and computed == []
    assert store.path_for("sweep").read_bytes() == \
        mono_store.path_for("sweep").read_bytes()


def test_recheck_passes_on_clean_store_and_detects_tampering(tmp_path,
                                                             monolithic):
    mono_store, _ = monolithic
    full = mono_store.load_keyed("sweep")

    clean = ResultStore(tmp_path / "clean")
    clean.save_keyed("sweep", full.values(), meta=TEST_SWEEP.meta())
    summary = execute_sweep(TEST_SWEEP, store=clean, resume=True, recheck=2,
                            engine=fresh_engine(), max_workers=1)
    assert summary["rechecked"] == 2

    tampered_records = [dict(r) for r in full.values()]
    tampered_records[0]["energy_j"] *= 1.000001
    tampered = ResultStore(tmp_path / "tampered")
    tampered.save_keyed("sweep", tampered_records, meta=TEST_SWEEP.meta())
    with pytest.raises(SweepRecheckError):
        execute_sweep(TEST_SWEEP, store=tampered, resume=True,
                      recheck=len(tampered_records),
                      engine=fresh_engine(), max_workers=1)


def test_resume_requires_store():
    with pytest.raises(ValueError, match="resume requires"):
        execute_sweep(TEST_SWEEP, resume=True, engine=fresh_engine(),
                      max_workers=1)


def test_resume_rejects_store_from_a_different_sweep(tmp_path, monolithic):
    mono_store, _ = monolithic
    store = ResultStore(tmp_path / "foreign")
    store.save_keyed("sweep", mono_store.load_keyed("sweep").values(),
                     meta=TEST_SWEEP.meta())
    narrower = SweepSpec(benchmarks=("crc32",), x_limits=(1.1, 1.5))
    with pytest.raises(ValueError, match="different\\s+sweeps"):
        execute_sweep(narrower, store=store, resume=True,
                      engine=fresh_engine(), max_workers=1)
    # The store must be left untouched by the refused resume.
    assert store.load_meta("sweep")["benchmarks"] == ["crc32", "fdct"]
    assert len(store.load_keyed("sweep")) == TEST_SWEEP.size


# --------------------------------------------------------------------------- #
# Report pipeline
# --------------------------------------------------------------------------- #
def hand_records():
    return [
        {"cell_key": "k1", "benchmark": "a", "flash_ram_ratio": None,
         "x_limit": 1.1, "energy_j": 2.0, "time_ratio": 1.05, "ram_bytes": 40,
         "energy_change": -0.2, "time_change": 0.05, "blocks_moved": 2},
        {"cell_key": "k2", "benchmark": "a", "flash_ram_ratio": None,
         "x_limit": 1.5, "energy_j": 1.0, "time_ratio": 1.4, "ram_bytes": 90,
         "energy_change": -0.4, "time_change": 0.4, "blocks_moved": 5},
        {"cell_key": "k3", "benchmark": "a", "flash_ram_ratio": None,
         "x_limit": 1.5, "energy_j": 3.0, "time_ratio": 1.5, "ram_bytes": 95,
         "energy_change": -0.1, "time_change": 0.5, "blocks_moved": 6},
        {"cell_key": "k4", "benchmark": "b", "flash_ram_ratio": 2.5,
         "x_limit": 1.5, "energy_j": 9.0, "time_ratio": 1.2, "ram_bytes": 10,
         "energy_change": -0.3, "time_change": 0.2, "blocks_moved": 1},
    ]


def test_sweep_report_fronts_envelope_and_summary():
    report = sweep_report(hand_records())
    assert report["summary"]["cells"] == 4
    assert report["summary"]["benchmarks"] == ["a", "b"]
    # k3 is dominated by k2 within benchmark a; b's only point is frontier.
    assert report["summary"]["pareto_points"] == 3
    fronts = report["fronts"]
    a_label = "benchmark=a,flash_ram_ratio=None"
    assert [r["cell_key"] for r in fronts[a_label]] == ["k2", "k1"]
    assert report["summary"]["frontier_sizes"][a_label] == 2
    # Envelope: lowest-energy cell per (group, X_limit).
    envelope = report["energy_vs_x_limit"]
    assert [(r["benchmark"], r["x_limit"], r["cell_key"]) for r in envelope] \
        == [("a", 1.1, "k1"), ("a", 1.5, "k2"), ("b", 1.5, "k4")]
    # Input order must not matter.
    shuffled = sweep_report(list(reversed(hand_records())))
    assert shuffled == report


def test_report_tables_are_csv_with_exact_floats():
    report = sweep_report(hand_records())
    tables = report_tables(report)
    front_csv = tables["pareto_fronts.csv"].splitlines()
    assert front_csv[0].startswith("benchmark,flash_ram_ratio,")
    assert len(front_csv) == 1 + report["summary"]["pareto_points"]
    envelope_csv = tables["energy_vs_x_limit.csv"].splitlines()
    assert len(envelope_csv) == 1 + len(report["energy_vs_x_limit"])
    # Floats serialize via repr (exact) and None as empty.
    assert "1.05" in tables["pareto_fronts.csv"]
    assert ",," in tables["pareto_fronts.csv"]  # the None ratio column


def fidelity_records():
    def record(key, mode, fb, blocks, x_limit=1.5):
        return {"cell_key": key, "benchmark": "a", "opt_level": "O2",
                "solver": "ilp", "frequency_mode": mode, "x_limit": x_limit,
                "r_spare_requested": None, "flash_ram_ratio": None,
                "energy_j": 1.0, "time_ratio": 1.0, "ram_bytes": 0,
                "energy_change": 0.0, "time_change": 0.0, "blocks_moved": 0,
                "fb_mean_abs_log_ratio": fb, "fb_blocks_compared": 7,
                "fb_predicted_dead": 0, "fb_missed_hot": 0,
                "ram_blocks": blocks}
    return [
        record("p1", "profile", 0.0, ["f:a", "f:b"]),
        record("p2", "profile", 0.0, ["f:c"], x_limit=1.1),
        record("s1", "static", 0.8, ["f:a", "f:b"]),            # exact match
        record("s2", "static", 0.6, ["f:a"], x_limit=1.1),      # differs
        record("w1", "wu_larus", 0.4, ["f:a"]),                 # overlaps p1
    ]


def test_frequency_fidelity_rows_aggregate_and_pair_against_profile():
    from repro.explore.report import frequency_fidelity_rows
    rows = frequency_fidelity_rows(fidelity_records())
    by_mode = {row["frequency_mode"]: row for row in rows}
    assert set(by_mode) == {"profile", "static", "wu_larus"}

    profile = by_mode["profile"]
    assert profile["fb_mean_abs_log_ratio"] == 0.0
    assert profile["placements_compared"] == 0      # nothing to compare with
    assert profile["placement_exact_match"] is None

    static = by_mode["static"]
    assert static["cells"] == 2
    assert static["fb_mean_abs_log_ratio"] == pytest.approx(0.7)
    # s1 matches p1 exactly; s2 picks {f:a} against p2's {f:c} (Jaccard 0).
    assert static["placements_compared"] == 2
    assert static["placement_exact_match"] == pytest.approx(0.5)
    assert static["placement_jaccard"] == pytest.approx(0.5)

    wu = by_mode["wu_larus"]
    # w1's {f:a} vs p1's {f:a, f:b}: no exact match, Jaccard 1/2.
    assert wu["placements_compared"] == 1
    assert wu["placement_exact_match"] == 0.0
    assert wu["placement_jaccard"] == pytest.approx(0.5)

    # Deterministic in record contents, not their order.
    assert frequency_fidelity_rows(list(reversed(fidelity_records()))) == rows


def test_report_embeds_fidelity_section_and_csv():
    report = sweep_report(fidelity_records())
    assert len(report["frequency_fidelity"]) == 3
    csv_text = report_tables(report)["frequency_fidelity.csv"]
    lines = csv_text.splitlines()
    assert lines[0].startswith("benchmark,frequency_mode,cells,")
    assert len(lines) == 4
    # Records without fidelity fields produce an empty (but valid) table.
    bare = sweep_report(hand_records())
    assert bare["frequency_fidelity"] == []
    assert len(report_tables(bare)["frequency_fidelity.csv"].splitlines()) == 1


def test_report_gnuplot_scripts_cover_every_series():
    report = sweep_report(hand_records())
    scripts = report_scripts(report)
    assert sorted(scripts) == ["energy_vs_x_limit.gp", "pareto_fronts.gp"]

    envelope = scripts["energy_vs_x_limit.gp"]
    # One plot clause per (benchmark, ratio) series, reading the CSV the
    # report writes next to the script; calibrated cells match the empty
    # ratio column.
    assert 'set datafile separator ","' in envelope
    assert '"energy_vs_x_limit.csv"' in envelope
    assert 'strcol(1) eq "a" && strcol(2) eq ""' in envelope
    assert 'strcol(1) eq "b" && strcol(2) eq "2.5"' in envelope
    # Flat records match the timing_model column (3) explicitly.
    assert 'strcol(3) eq "flat"' in envelope
    assert 'title "a (calibrated)"' in envelope
    assert 'title "b (ratio 2.5)"' in envelope
    # x/y columns must track the CSV layout constants.
    assert ": NaN):5 " in envelope        # energy_j is envelope column 5
    assert "column(4)" in envelope        # x_limit is envelope column 4

    fronts = scripts["pareto_fronts.gp"]
    assert '"pareto_fronts.csv"' in fronts
    assert ": NaN):9 " in fronts          # energy_j is front column 9
    assert "column(10)" in fronts         # time_ratio is front column 10

    # Deterministic in the report alone (shard→merge→report contract).
    assert report_scripts(sweep_report(list(reversed(hand_records())))) \
        == scripts


def test_progress_reporting_writes_stderr_only(tmp_path, monolithic, capsys):
    mono_store, _ = monolithic
    store = ResultStore(tmp_path / "progress")
    execute_sweep(TEST_SWEEP, store=store, engine=fresh_engine(),
                  max_workers=1, progress=True)
    captured = capsys.readouterr()
    assert captured.out == ""                       # stdout machine-readable
    assert f"{TEST_SWEEP.size}/{TEST_SWEEP.size} cells" in captured.err
    assert "cells/s" in captured.err
    assert store.path_for("sweep").read_bytes() == \
        mono_store.path_for("sweep").read_bytes()


def test_report_from_store_needs_no_simulation(tmp_path, monolithic,
                                               monkeypatch):
    mono_store, _ = monolithic
    # Any attempt to run an experiment during reporting is a failure.
    monkeypatch.setattr(
        EngineClass, "run_cell",
        lambda self, spec, energy_model=None: (_ for _ in ()).throw(
            AssertionError("report must not simulate")))
    report = report_from_store(mono_store)
    assert report["summary"]["cells"] == TEST_SWEEP.size
    assert report["store_meta"]["cells"] == TEST_SWEEP.size
    assert report["summary"]["pareto_points"] >= 1
    for front in report["fronts"].values():
        for record_ in front:
            assert record_["pareto"] is True

    write_report(report, tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
        ["energy_vs_x_limit.csv", "energy_vs_x_limit.gp",
         "frequency_fidelity.csv", "pareto_fronts.csv", "pareto_fronts.gp",
         "report.json"]
    reloaded = json.loads((tmp_path / "out" / "report.json").read_text())
    assert reloaded == json.loads(json.dumps(report))
