"""Telemetry: spans, counters, metrics plane — and the no-interference bar.

The contract under test is the one DESIGN.md states: telemetry is strictly
out-of-band.  A sweep writes the **byte-identical** store with ``--telemetry``
on or off, locally or distributed, even when a worker is SIGKILLed mid-lease;
the hub is a no-op without a sink; event files parse line by line no matter
how their process died; and the live ``metrics`` protocol request serves a
Prometheus-renderable snapshot without joining the fleet.
"""

import json
import time
from collections import Counter

import pytest

from repro.distrib import SweepService, connect, worker_process_entry
from repro.engine import ExperimentEngine, ProgramCache, ResultStore
from repro.explore import SweepSpec, execute_sweep
from repro.sim import Simulator
from repro.sim.profiler import BlockProfile
from repro.telemetry import (
    Ewma,
    RateEwma,
    Telemetry,
    configure_telemetry,
    get_telemetry,
    load_events,
    render_prometheus,
    render_trace_stats,
    reset_telemetry,
    trace_stats,
)
from repro.telemetry.metrics import percentile
from test_distrib import SPAWN, TEST_SWEEP, wait_until

#: 2-cell sweep: enough to exercise compile/solve/simulate spans cheaply.
SMALL_SWEEP = SweepSpec(benchmarks=("crc32",), x_limits=(1.1, 1.5))


@pytest.fixture
def clean_hub():
    """Reset the process singleton (and its env propagation) around a test."""
    reset_telemetry(clear_env=True)
    yield get_telemetry()
    reset_telemetry(clear_env=True)


def fresh_engine() -> ExperimentEngine:
    return ExperimentEngine(cache=ProgramCache())


# --------------------------------------------------------------------------- #
# The hub itself
# --------------------------------------------------------------------------- #
def test_disabled_hub_is_a_noop(tmp_path):
    hub = Telemetry()
    with hub.span("compile", benchmark="crc32") as span_id:
        assert span_id is None
    hub.add("cache.compiles")
    hub.set_gauge("service.queue_depth", 7)
    hub.flush()
    assert hub.snapshot() == {"counters": {}, "gauges": {}}
    assert list(tmp_path.iterdir()) == []  # and certainly no event file


def test_span_events_nest_and_counters_flush(tmp_path):
    hub = Telemetry().configure(tmp_path, role="main", propagate=False)
    with hub.span("outer", stage="x"):
        with hub.span("inner"):
            pass
    hub.add("c.a", 2)
    hub.add("c.a")
    hub.set_gauge("g.b", 0.5)
    hub.flush()
    hub.reset()

    events, skipped = load_events(tmp_path)
    assert skipped == 0
    assert events[0]["event"] == "meta" and events[0]["role"] == "main"
    spans = {e["name"]: e for e in events if e["event"] == "span"}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["inner"]["depth"] == 1 and spans["outer"]["depth"] == 0
    assert spans["outer"]["parent"] is None
    assert spans["outer"]["attrs"] == {"stage": "x"}
    assert spans["outer"]["dur"] >= spans["inner"]["dur"] >= 0
    counters = [e for e in events if e["event"] == "counters"]
    assert counters and counters[-1]["counters"] == {"c.a": 3}
    assert counters[-1]["gauges"] == {"g.b": 0.5}


def test_singleton_configures_from_environment(tmp_path, clean_hub,
                                               monkeypatch):
    import repro.telemetry.hub as hub_module
    monkeypatch.setenv(hub_module.TELEMETRY_DIR_ENV, str(tmp_path))
    monkeypatch.setenv(hub_module.TELEMETRY_ROLE_ENV, "worker")
    # Simulate a child process's first get_telemetry(): a fresh instance.
    monkeypatch.setattr(hub_module, "_HUB", None)
    hub = hub_module.get_telemetry()
    try:
        assert hub.enabled and hub.role == "worker"
        with hub.span("lease.roundtrip"):
            pass
        events, _ = load_events(tmp_path)
        assert any(e.get("name") == "lease.roundtrip" for e in events)
    finally:
        hub.reset()


# --------------------------------------------------------------------------- #
# Estimators (pure units, no I/O)
# --------------------------------------------------------------------------- #
def test_ewma_halflife_semantics():
    ewma = Ewma(halflife=10.0)
    assert ewma.value is None
    assert ewma.update(100.0, dt=1.0) == 100.0      # first sample initializes
    # One full half-life later: old estimate keeps exactly half its weight.
    assert ewma.update(0.0, dt=10.0) == pytest.approx(50.0)
    with pytest.raises(ValueError, match="halflife"):
        Ewma(halflife=0.0)


def test_rate_ewma_turns_counts_into_rates():
    rate = RateEwma(halflife=15.0)
    assert rate.rate is None
    rate.observe(5, now=100.0)       # origin only: no interval to rate yet
    assert rate.rate is None
    rate.observe(4, now=102.0)       # 4 events over 2 s
    assert rate.rate == pytest.approx(2.0)
    rate.observe(3, now=102.0)       # dt <= 0 is ignored, not a divide
    assert rate.rate == pytest.approx(2.0)

    # A start= seed makes the very first observation produce a rate — the
    # progress reporter depends on this for its first ETA line.
    seeded = RateEwma(start=0.0)
    seeded.observe(2, now=2.0)
    assert seeded.rate == pytest.approx(1.0)


def test_percentile_is_nearest_rank():
    assert percentile([], 0.5) is None
    assert percentile([3.0], 0.95) == 3.0
    samples = [float(value) for value in range(1, 11)]
    assert percentile(samples, 0.5) == 6.0
    assert percentile(samples, 0.95) == 10.0


def test_render_prometheus_shapes_and_escaping():
    text = render_prometheus({
        "total": 10, "done": 4, "pending": 5, "leased": 1, "leases": 1,
        "workers": 2, "workers_seen": 3, "requeued_batches": 1,
        "reaped_leases": 0, "duplicate_records": 0,
        "throughput": 2.5, "eta_seconds": 2.0,
        "worker_throughput": {'w"1': 1.25},
        "worker_cells": {'w"1': 4},
        "heartbeat_age_seconds": {'w"1': 0.5},
        "lease_latency_seconds": {"0.5": 0.2, "0.95": 0.9},
    })
    assert "# TYPE repro_cells_done counter\nrepro_cells_done 4" in text
    assert "repro_queue_depth 5" in text
    assert 'repro_worker_throughput_cells_per_second{worker="w\\"1"} 1.25' \
        in text
    assert 'repro_lease_latency_seconds{quantile="0.95"} 0.9' in text
    # Every non-comment line is a `name[{labels}] value` sample.
    for line in text.strip().splitlines():
        if not line.startswith("#"):
            float(line.rsplit(" ", 1)[1])
    # None/missing fields are omitted rather than rendered as garbage.
    assert "eta" not in render_prometheus({"total": 1, "eta_seconds": None})


# --------------------------------------------------------------------------- #
# Stats reducer
# --------------------------------------------------------------------------- #
def test_trace_stats_reduces_phases_cells_and_torn_lines(tmp_path):
    hub = Telemetry().configure(tmp_path, role="main", propagate=False)
    with hub.span("cell", benchmark="crc32", opt_level="O2", x_limit=1.1,
                  solver="greedy"):
        with hub.span("compile"):
            time.sleep(0.01)
        with hub.span("simulate"):
            time.sleep(0.01)
    hub.add("cache.compiles", 3)
    hub.reset()  # flushes the counters event and closes the file
    path = next(tmp_path.glob("*.events.jsonl"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"event":"span","name":"torn')  # a SIGKILL's tail

    stats = trace_stats(tmp_path)
    assert stats["skipped_lines"] == 1
    assert stats["phases"]["compile"]["count"] == 1
    assert stats["phases"]["simulate"]["total_s"] >= 0.01
    # Exclusive time telescopes: the cell's exclusive part excludes its
    # children, so the phase total never double-counts nested spans.
    cell = stats["phases"]["cell"]
    assert cell["exclusive_s"] <= cell["total_s"] - 0.02 + 1e-6
    assert 0.0 < stats["coverage"] <= 1.0 + 1e-9
    assert stats["counters"] == {"cache.compiles": 3}
    [row] = stats["cells"]
    assert row["phases"]["compile"] >= 0.01

    rendered = render_trace_stats(tmp_path)
    assert "1 torn/undecodable" in rendered
    assert "crc32/O2/1.1 [solver=greedy]" in rendered
    assert "cache.compiles = 3" in rendered


# --------------------------------------------------------------------------- #
# The _finish reconciliation tripwire
# --------------------------------------------------------------------------- #
def test_simulator_finish_rejects_unreconciled_counts():
    program = ProgramCache().get_benchmark("crc32", "O0")
    simulator = Simulator(program)
    counts = {(1, "flash", 1, None): 4}
    with pytest.raises(AssertionError, match="do not reconcile"):
        simulator._finish(10, 5, counts, BlockProfile(), {"flash": 10})
    with pytest.raises(AssertionError, match="cycle buckets"):
        simulator._finish(10, 4, counts, BlockProfile(), {"flash": 9})


# --------------------------------------------------------------------------- #
# Simulator counters: each timing model publishes its own
# --------------------------------------------------------------------------- #
def test_each_timing_model_publishes_its_own_counters(tmp_path, clean_hub):
    cache = ProgramCache()

    def counters_of_run(timing_model):
        reset_telemetry(clear_env=True)
        configure_telemetry(tmp_path / timing_model, role="main")
        program = cache.get_benchmark_mutable("crc32", "O2")
        Simulator(program, timing_model=timing_model).run()
        return dict(get_telemetry().counters)

    def family(counters, prefix):
        return {name for name in counters if name.startswith(prefix)}

    flat = counters_of_run("flat")
    assert family(flat, "sim.superblock.") == {
        "sim.superblock.compiles", "sim.superblock.dispatches",
        "sim.superblock.instructions"}
    assert 0 < flat["sim.superblock.instructions"] <= flat["sim.instructions"]
    assert not family(flat, "sim.icache.")

    pipelined = counters_of_run("pipelined")
    assert not family(pipelined, "sim.superblock.")
    assert not family(pipelined, "sim.icache.")

    cached = counters_of_run("pipelined+icache")
    assert not family(cached, "sim.superblock.")
    # Every retired instruction is fetched exactly once: a hit or a miss.
    assert (cached["sim.icache.hits"] + cached["sim.icache.misses"]
            == cached["sim.instructions"])


# --------------------------------------------------------------------------- #
# Pool cache-stats aggregation (satellite: stats cross the pool)
# --------------------------------------------------------------------------- #
def test_pool_worker_cache_stats_are_merged(clean_hub):
    from repro.engine.engine import ExperimentSpec
    engine = ExperimentEngine(cache=ProgramCache(), max_workers=2)
    specs = [ExperimentSpec(benchmark="crc32", x_limit=x, solver="greedy")
             for x in (1.1, 1.3, 1.5, 2.0)]
    engine.run_grid(specs)
    assert engine.pool_cache_stats  # per-(epoch, pid) snapshots came back
    merged = engine.merged_cache_stats()
    # The parent process never compiled anything itself — every compile
    # happened inside a pool worker and must still show up in the merge.
    assert engine.cache.stats.compiles == 0
    assert merged["compiles"] >= 1
    assert merged["hits"] + merged["misses"] >= len(specs)


# --------------------------------------------------------------------------- #
# Determinism: telemetry never touches results
# --------------------------------------------------------------------------- #
def test_local_sweep_is_byte_identical_with_telemetry(tmp_path, clean_hub):
    plain = ResultStore(tmp_path / "plain")
    execute_sweep(SMALL_SWEEP, store=plain, engine=fresh_engine(),
                  max_workers=1)

    configure_telemetry(tmp_path / "trace", role="main")
    traced = ResultStore(tmp_path / "traced")
    execute_sweep(SMALL_SWEEP, store=traced, engine=fresh_engine(),
                  max_workers=1)
    reset_telemetry(clear_env=True)

    assert traced.path_for("sweep").read_bytes() == \
        plain.path_for("sweep").read_bytes()
    events, skipped = load_events(tmp_path / "trace")
    assert skipped == 0
    spans = Counter(e.get("name") for e in events if e.get("event") == "span")
    assert {"cell", "compile", "placement.solve", "simulate",
            "store.checkpoint"} <= set(spans)
    # Telemetry's cost is its event count: per cell one `cell` and one
    # `placement.solve` span, at most two `compile` and two `simulate`
    # spans, plus one checkpoint per store.  A per-block or per-instruction
    # span would break the bound.
    cells = SMALL_SWEEP.size
    assert spans["cell"] == spans["placement.solve"] == cells
    assert spans["compile"] <= 2 * cells and spans["simulate"] <= 2 * cells
    assert spans["store.checkpoint"] == 1
    assert sum(spans.values()) <= 6 * cells + 1
    stats = trace_stats(tmp_path / "trace")
    # One simulation per distinct baseline and per distinct placement; every
    # other simulation a cell needs is priced from the engine's memo.
    baselines, placements = set(), set()
    for record in traced.load_keyed("sweep").values():
        program = (record["benchmark"], record["opt_level"],
                   record.get("timing_model", "flat"))
        baselines.add(program)
        placements.add(program + (tuple(record["ram_blocks"]),))
    counters = stats["counters"]
    assert counters.get("sim.runs", 0) == len(baselines) + len(placements)
    assert (counters.get("sim.runs", 0) + counters.get("sim.reused", 0)
            == 2 * SMALL_SWEEP.size)
    # Superblock coverage: instructions retired inside superblocks are a
    # non-empty part of all instructions retired.
    assert (0 < counters.get("sim.superblock.instructions", 0)
            <= counters["sim.instructions"])


#: fdct compiles to one program at O2 and Os, crc32 to two.
TWIN_SWEEP = SweepSpec(benchmarks=("crc32", "fdct"), opt_levels=("O2", "Os"),
                       x_limits=(1.1, 1.5))


def test_level_twins_are_solved_and_simulated_once(tmp_path, clean_hub):
    engine = fresh_engine()
    configure_telemetry(tmp_path / "trace", role="main")
    store = ResultStore(tmp_path / "store")
    execute_sweep(TWIN_SWEEP, store=store, engine=engine, max_workers=1)
    reset_telemetry(clear_env=True)

    events, _skipped = load_events(tmp_path / "trace")
    spans = Counter(e.get("name") for e in events if e.get("event") == "span")
    counters = trace_stats(tmp_path / "trace")["counters"]
    # Every optimized cell either solves or reuses its twin's placement,
    # and a reused placement opens no solve span.
    assert (spans["placement.solve"] + counters.get("placement.reused", 0)
            == TWIN_SWEEP.size)
    assert counters["placement.reused"] == 2  # fdct Os at both X_limits
    baselines, placements = set(), set()
    for record in store.load_keyed("sweep").values():
        program = (engine.cache.benchmark_digest(record["benchmark"],
                                                 record["opt_level"]),
                   record.get("timing_model", "flat"))
        baselines.add(program)
        placements.add(program + (tuple(record["ram_blocks"]),))
    assert len(baselines) == 3
    assert counters["sim.runs"] == len(baselines) + len(placements)
    assert (counters["sim.runs"] + counters.get("sim.reused", 0)
            == 2 * TWIN_SWEEP.size)


def test_distributed_telemetry_sigkill_stays_bitwise(tmp_path, clean_hub):
    mono = ResultStore(tmp_path / "mono")
    execute_sweep(TEST_SWEEP, store=mono, engine=fresh_engine(),
                  max_workers=1)

    # --telemetry on the service propagates to spawned workers via the
    # environment; the fleet then survives a SIGKILLed worker mid-lease.
    trace = tmp_path / "trace"
    configure_telemetry(trace, role="service")
    store = ResultStore(tmp_path / "dist")
    service = SweepService(store=store, lease_timeout=30.0,
                           checkpoint_every=1, drain_when_idle=True)
    service.submit(TEST_SWEEP, "sweep", batch_size=1)
    service.start()

    def stats():
        return service.status_snapshot("sweep")["sweep"]

    victim = replacement = None
    try:
        victim = SPAWN.Process(
            target=worker_process_entry,
            args=(service.host, service.port),
            kwargs={"name": "victim", "throttle": 60.0}, daemon=True)
        victim.start()
        wait_until(lambda: stats()["leased"] >= 1,
                   message="victim to take a lease")
        victim.kill()
        victim.join(timeout=30.0)
        wait_until(
            lambda: stats()["requeued_batches"] >= 1,
            timeout=60.0, message="the victim's lease to be re-queued")
        replacement = SPAWN.Process(
            target=worker_process_entry,
            args=(service.host, service.port),
            kwargs={"name": "replacement"}, daemon=True)
        replacement.start()
        assert service.wait("sweep", 180.0), \
            "sweep did not finish after re-lease"
        service.summary("sweep")
    finally:
        reset_telemetry(clear_env=True)
        service.shutdown()
        for process in (victim, replacement):
            if process is not None:
                process.join(timeout=10.0)
                if process.is_alive():
                    process.terminate()

    # Out-of-band: the traced, killed, re-leased distributed store is still
    # byte-identical to the untraced monolithic one.
    assert store.path_for("sweep").read_bytes() == \
        mono_bytes_of(mono)
    # Every per-process event file — including the SIGKILLed victim's
    # partial one — parses line by line, with at most one torn tail each.
    files = sorted(trace.glob("*.events.jsonl"))
    assert len(files) >= 2  # service + at least one worker
    events, skipped = load_events(trace)
    assert skipped <= len(files)
    roles = {e.get("role") for e in events if e.get("event") == "meta"}
    assert {"service", "worker"} <= roles
    assert any(e.get("name") == "lease.roundtrip" for e in events)


def mono_bytes_of(store: ResultStore) -> bytes:
    """The reference bytes of a monolithic sweep store."""
    return store.path_for("sweep").read_bytes()


# --------------------------------------------------------------------------- #
# Live metrics plane
# --------------------------------------------------------------------------- #
def test_metrics_request_serves_snapshot_without_hello():
    service = SweepService(drain_when_idle=True)
    service.submit(TEST_SWEEP, "sweep", batch_size=1)
    service.start()
    stream = None
    try:
        stream = connect(service.host, service.port)
        stream.send({"type": "metrics"})
        reply = stream.recv()
        assert reply["type"] == "metrics"
        snapshot = reply["snapshot"]
        assert snapshot["total"] == TEST_SWEEP.size
        assert snapshot["pending"] == TEST_SWEEP.size
        assert snapshot["done"] == 0 and snapshot["workers"] == 0
        json.dumps(snapshot)  # the snapshot is JSON-safe by construction

        # The connection is an observer: it holds no lease state and stays
        # open, so a dashboard can poll without joining the fleet.
        stream.send({"type": "metrics"})
        assert stream.recv()["type"] == "metrics"

        text = render_prometheus(snapshot)
        assert "repro_queue_depth" in text and "# TYPE" in text
    finally:
        if stream is not None:
            stream.close()
        service.shutdown()
