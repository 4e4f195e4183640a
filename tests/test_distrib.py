"""Distributed sweep execution: determinism, fault tolerance, balancing.

The contract under test mirrors the sharding one from PR 3, strengthened:
however a fleet of workers leases, re-leases, duplicates or interleaves
batches — including workers killed mid-lease — the final store is **byte
identical** to a monolithic ``execute_sweep`` of the same spec, and dynamic
batch leasing finishes a straggler fleet sooner than a static partition
could.
"""

import io
import json
import multiprocessing
import os
import socket
import threading
import time
from multiprocessing.context import SpawnProcess

import pytest

from repro.distrib import (
    PROTOCOL_VERSION,
    ProgressReporter,
    ProtocolError,
    ServiceError,
    SweepService,
    adaptive_batch,
    connect,
    execute_sweep_distributed,
    format_eta,
    run_worker,
    worker_process_entry,
)
from repro.distrib.local import BLAS_THREAD_PINS
from repro.distrib.protocol import decode_message, encode_message
from repro.engine import ExperimentEngine, ProgramCache, ResultStore
from repro.explore import SweepSpec, execute_sweep
from repro.telemetry import render_prometheus

#: Same 4-cell sweep the persistence tests use (~1 s monolithic).
TEST_SWEEP = SweepSpec(benchmarks=("crc32", "fdct"), x_limits=(1.1, 1.5))

#: TEST_SWEEP under two energy calibrations: 8 cells, so a 2-way static
#: partition would park 4 of them on a straggler.
STRAGGLER_SWEEP = SweepSpec(benchmarks=("crc32", "fdct"), x_limits=(1.1, 1.5),
                            flash_ram_ratios=(None, 2.5))

#: Spawn, not fork: the service under test runs server threads, and
#: forking a threaded parent can deadlock the child on inherited locks.
SPAWN = multiprocessing.get_context("spawn")


def fresh_engine() -> ExperimentEngine:
    return ExperimentEngine(cache=ProgramCache())


def run_monolithic(sweep, directory):
    """A clean monolithic run of *sweep*, stored, plus its per-cell wall
    time."""
    store = ResultStore(directory)
    started = time.monotonic()
    execute_sweep(sweep, store=store, engine=fresh_engine(), max_workers=1)
    return store, (time.monotonic() - started) / sweep.size


@pytest.fixture(scope="module")
def monolithic(tmp_path_factory):
    """A clean monolithic run of TEST_SWEEP plus its per-cell wall time."""
    return run_monolithic(TEST_SWEEP, tmp_path_factory.mktemp("mono"))


@pytest.fixture(scope="module")
def straggler_monolithic(tmp_path_factory):
    """A clean monolithic run of STRAGGLER_SWEEP plus its per-cell wall
    time."""
    return run_monolithic(STRAGGLER_SWEEP,
                          tmp_path_factory.mktemp("straggler-mono"))


def draining_service(sweep, store=None, batch_size=1,
                     **options) -> SweepService:
    """A started service hosting *sweep* as ``"sweep"`` (one-cell leases by
    default); it releases its workers once the sweep is terminal."""
    service = SweepService(store=store, drain_when_idle=True, **options)
    service.submit(sweep, "sweep", batch_size=batch_size)
    return service.start()


def spawn_worker(service, **kwargs):
    process = SPAWN.Process(target=worker_process_entry,
                            args=(service.host, service.port),
                            kwargs=kwargs, daemon=True)
    process.start()
    return process


def sweep_stats(service, name="sweep"):
    """One hosted sweep's live snapshot (the ``status`` verb's payload)."""
    return service.status_snapshot(name)[name]


def wait_until(predicate, timeout=60.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.05)


# --------------------------------------------------------------------------- #
# Spec round trip (what workers rebuild from each lease's axes meta)
# --------------------------------------------------------------------------- #
def test_spec_roundtrips_through_meta_with_identical_cell_keys():
    spec = SweepSpec(benchmarks=("crc32", "fdct"), opt_levels=("O2", "Os"),
                     x_limits=(1.1, 2.0), r_spares=(None, 512),
                     flash_ram_ratios=(None, 2.5), solvers=("ilp", "greedy"),
                     frequency_modes=("static",))
    # Through meta() and through a real JSON round trip (the wire format).
    for meta in (spec.meta(), json.loads(json.dumps(spec.meta()))):
        rebuilt = SweepSpec.from_meta(meta)
        assert rebuilt == spec
        assert [c.key for c in rebuilt.cells()] == \
            [c.key for c in spec.cells()]
    with pytest.raises(ValueError, match="missing axis"):
        SweepSpec.from_meta({"benchmarks": ["crc32"]})


# --------------------------------------------------------------------------- #
# Happy path: distributed == monolithic, byte for byte
# --------------------------------------------------------------------------- #
def test_distributed_run_is_byte_identical_to_monolithic(tmp_path, monolithic):
    mono_store, _ = monolithic
    store = ResultStore(tmp_path / "dist")
    summary = execute_sweep(TEST_SWEEP, store=store, workers=2)
    assert summary["computed"] == TEST_SWEEP.size
    assert summary["distrib"]["workers"] == 2
    assert store.path_for("sweep").read_bytes() == \
        mono_store.path_for("sweep").read_bytes()


def test_distributed_resume_computes_only_missing_cells(tmp_path, monolithic):
    mono_store, _ = monolithic
    full = mono_store.load_keyed("sweep")
    keys = sorted(full)
    store = ResultStore(tmp_path / "resume")
    store.save_keyed("sweep", [full[k] for k in keys[:2]],
                     meta=TEST_SWEEP.meta())
    summary = execute_sweep(TEST_SWEEP, store=store, workers=2, resume=True)
    assert summary["skipped"] == 2 and summary["computed"] == 2
    assert store.path_for("sweep").read_bytes() == \
        mono_store.path_for("sweep").read_bytes()


def test_local_fleet_validates_arguments():
    with pytest.raises(ValueError, match="at least 1 worker"):
        execute_sweep_distributed(TEST_SWEEP, workers=0)
    with pytest.raises(ValueError, match="worker_options"):
        execute_sweep_distributed(TEST_SWEEP, workers=1,
                                  worker_options=[{}, {}])
    with pytest.raises(ValueError, match="recheck"):
        execute_sweep(TEST_SWEEP, workers=1, recheck=1)
    # Fleet workers are sequential; an in-process fan-out is not silently
    # dropped on the distributed path.
    with pytest.raises(ValueError, match="max_workers"):
        execute_sweep(TEST_SWEEP, workers=1, max_workers=2)


def test_local_fleet_pins_blas_threads_where_unset(monkeypatch):
    """Spawned workers start with one BLAS thread unless the caller chose a
    count, and the caller's environment is restored afterwards."""
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    before = dict(os.environ)
    started = []

    class Started(Exception):
        pass

    def record_environment(process):
        started.append({pin: os.environ.get(pin) for pin in BLAS_THREAD_PINS})
        raise Started  # spawn nothing

    monkeypatch.setattr(SpawnProcess, "start", record_environment)
    with pytest.raises(Started):
        execute_sweep_distributed(TEST_SWEEP, workers=2)
    assert started == [{"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "3",
                        "MKL_NUM_THREADS": "1"}]
    assert dict(os.environ) == before


# --------------------------------------------------------------------------- #
# Fault tolerance
# --------------------------------------------------------------------------- #
def test_worker_killed_mid_lease_batch_is_relesed_bitwise(tmp_path,
                                                          monolithic):
    mono_store, _ = monolithic
    store = ResultStore(tmp_path / "killed")
    service = draining_service(TEST_SWEEP, store=store, lease_timeout=30.0,
                               checkpoint_every=1)
    victim = None
    replacement = None
    try:
        # The victim computes its leased cell, then sleeps ~60 s before
        # reporting — a wide-open window in which to SIGKILL it mid-lease.
        victim = spawn_worker(service, name="victim", throttle=60.0)
        wait_until(lambda: sweep_stats(service)["leased"] >= 1,
                   message="victim to take a lease")
        victim.kill()
        victim.join(timeout=30.0)

        # The dropped connection must re-queue the victim's batch...
        wait_until(
            lambda: sweep_stats(service)["requeued_batches"] >= 1,
            message="the victim's lease to be re-queued")
        # ...and a replacement worker finishes the whole sweep.
        replacement = spawn_worker(service, name="replacement")
        assert service.wait("sweep", 180.0), \
            "sweep did not finish after re-lease"
        summary = service.summary("sweep")
    finally:
        service.shutdown()
        for process in (victim, replacement):
            if process is not None:
                process.join(timeout=10.0)
                if process.is_alive():
                    process.terminate()

    stats = summary["distrib"]
    assert stats["requeued_batches"] >= 1
    victim_cells = [count for worker, count in stats["cells_by_worker"].items()
                    if worker.startswith("victim")]
    assert victim_cells and all(count == 0 for count in victim_cells)
    # Checkpoints were journaled during the run and compacted at the end;
    # the store is still byte-identical to the monolithic run.
    assert not store.journal_path("sweep").exists()
    assert store.path_for("sweep").read_bytes() == \
        mono_store.path_for("sweep").read_bytes()


def fake_worker(service, name):
    """A raw protocol client — lets tests misbehave in controlled ways."""
    stream = connect(service.host, service.port)
    stream.send({"type": "hello", "version": PROTOCOL_VERSION, "worker": name})
    welcome = stream.recv()
    assert welcome["type"] == "welcome"
    return stream


def request(stream):
    stream.send({"type": "request"})
    return stream.recv()


def test_expired_lease_requeues_while_connection_stays_open():
    service = draining_service(TEST_SWEEP, lease_timeout=0.5)
    hung = None
    worker = None
    try:
        # A connected-but-hung worker (no heartbeats) must not block the
        # sweep: its lease expires and the batch goes back to the queue.
        hung = fake_worker(service, "hung")
        lease = request(hung)
        assert lease["type"] == "lease" and len(lease["keys"]) == 1
        wait_until(
            lambda: sweep_stats(service)["requeued_batches"] >= 1,
            timeout=30.0, message="the hung lease to expire")

        worker = spawn_worker(service, name="rescuer")
        assert service.wait("sweep", 180.0)
        summary = service.summary("sweep")
        assert summary["computed"] == TEST_SWEEP.size
        assert summary["distrib"]["requeued_batches"] >= 1
    finally:
        if hung is not None:
            hung.close()
        service.shutdown()
        if worker is not None:
            worker.join(timeout=10.0)
            if worker.is_alive():
                worker.terminate()


def test_duplicate_completions_validated_bitwise():
    sweep = SweepSpec(benchmarks=("crc32",), x_limits=(1.1, 1.5))
    keys = [cell.key for cell in sweep.cells()]
    service = draining_service(sweep, lease_timeout=0.5)
    first = second = None
    try:
        # `first` takes a lease and goes silent; the lease expires and the
        # same cell is re-leased to `second` — at-least-once execution.
        first = fake_worker(service, "first")
        lease_a = request(first)
        assert lease_a["type"] == "lease"
        key = lease_a["keys"][0]
        wait_until(
            lambda: sweep_stats(service)["requeued_batches"] >= 1,
            timeout=30.0, message="the silent lease to expire")
        second = fake_worker(service, "second")
        lease_b = request(second)
        assert lease_b["type"] == "lease" and lease_b["keys"] == [key]

        fabricated = {"cell_key": key, "energy_j": 1.0}
        second.send({"type": "result", "lease_id": lease_b["lease_id"],
                     "sweep": "sweep", "records": [fabricated]})
        wait_until(lambda: sweep_stats(service)["computed"] == 1,
                   message="the fabricated completion to land")

        # A bitwise-identical duplicate is tolerated (and counted)...  The
        # expired lease is gone, so this late result is routed by the
        # sweep it names.
        first.send({"type": "result", "lease_id": lease_a["lease_id"],
                    "sweep": "sweep", "records": [dict(fabricated)]})
        wait_until(
            lambda: sweep_stats(service)["duplicate_records"] == 1,
            message="the agreeing duplicate to be counted")
        assert sweep_stats(service)["failure"] is None

        # ...but a conflicting duplicate aborts the run: a fleet that does
        # not reproduce bitwise must not write a store.
        first.send({"type": "result", "lease_id": lease_a["lease_id"],
                    "sweep": "sweep",
                    "records": [{"cell_key": key, "energy_j": 2.0}]})
        assert service.wait("sweep", 30.0)
        with pytest.raises(ServiceError, match="DIFFERENT"):
            service.summary("sweep")
        assert keys  # both cells belonged to the sweep
    finally:
        for stream in (first, second):
            if stream is not None:
                stream.close()
        service.shutdown()


def test_result_for_unknown_cell_is_rejected():
    service = draining_service(TEST_SWEEP)
    rogue = None
    try:
        rogue = fake_worker(service, "rogue")
        lease = request(rogue)
        rogue.send({"type": "result", "lease_id": lease["lease_id"],
                    "records": [{"cell_key": "feedfacefeedface"}]})
        reply = rogue.recv()
        assert reply["type"] == "error"
        assert "unknown cell" in reply["message"]
        # The rogue's lease went back to the queue when it was disconnected.
        wait_until(
            lambda: sweep_stats(service)["requeued_batches"] >= 1,
            timeout=30.0, message="the rogue's lease to be re-queued")
        assert sweep_stats(service)["failure"] is None

        # A key that is not a string is refused the same way, with a reply.
        rogue.close()
        rogue = fake_worker(service, "rogue")
        lease = request(rogue)
        rogue.send({"type": "result", "lease_id": lease["lease_id"],
                    "records": [{"cell_key": ["feedface"]}]})
        reply = rogue.recv()
        assert reply["type"] == "error"
        assert "unknown cell" in reply["message"]
        wait_until(
            lambda: sweep_stats(service)["requeued_batches"] >= 2,
            timeout=30.0, message="the second lease to be re-queued")
    finally:
        if rogue is not None:
            rogue.close()
        service.shutdown()


# --------------------------------------------------------------------------- #
# Affinity leases: one benchmark per worker until the tail splits a group
# --------------------------------------------------------------------------- #
def complete(stream, lease):
    """Report a fabricated record for every cell of *lease*."""
    stream.send({"type": "result", "lease_id": lease["lease_id"],
                 "sweep": lease["sweep"],
                 "records": [{"cell_key": key, "energy": 1.0}
                             for key in lease["keys"]]})


def test_affinity_leases_keep_groups_until_the_tail_splits_one():
    sweep = SweepSpec(benchmarks=("crc32", "fdct"), opt_levels=("O2", "Os"),
                      x_limits=(1.1, 1.5, 2.0))
    group = {benchmark: [cell.key for cell in sweep.cells()
                         if cell.spec.benchmark == benchmark]
             for benchmark in sweep.benchmarks}
    service = draining_service(sweep, batch_size=2)
    first = second = None
    try:
        first = fake_worker(service, "first")
        second = fake_worker(service, "second")
        # Each peer takes the first group no other peer holds, from its
        # front: the group's leading keys, in sweep order.
        held = request(first)
        assert held["keys"] == group["crc32"][:len(held["keys"])]
        other = request(second)
        assert other["keys"] == group["fdct"][:len(other["keys"])]

        # `first` drains crc32 while `second` sits on its fdct lease: every
        # lease stays in the group it holds, and no group is split.
        drained = list(held["keys"])
        while len(drained) < len(group["crc32"]):
            complete(first, held)
            held = request(first)
            assert set(held["keys"]) <= set(group["crc32"])
            drained += held["keys"]
        assert drained == group["crc32"]
        assert sweep_stats(service)["split_groups"] == 0

        # Only fdct has pending cells, and `second` holds it: `first`
        # splits the tail, taking fdct's back end.
        complete(first, held)
        tail = request(first)
        assert tail["keys"] == group["fdct"][-len(tail["keys"]):]
        assert sweep_stats(service)["split_groups"] == 1
        assert 'repro_sweep_split_groups{sweep="sweep"} 1' in \
            render_prometheus(service.metrics_snapshot())

        # Both drain the rest and the count stands in the summary.
        for stream, lease in ((first, tail), (second, other)):
            while lease["type"] == "lease":
                complete(stream, lease)
                lease = request(stream)
        assert service.wait("sweep", 30.0)
        summary = service.summary("sweep")
        assert summary["computed"] == sweep.size
        assert summary["distrib"]["split_groups"] == 1
    finally:
        for stream in (first, second):
            if stream is not None:
                stream.close()
        service.shutdown()


def test_parked_worker_leaves_when_the_service_closes():
    """A worker told to wait 30 s leaves at once when the connection
    closes: the service never sends unsolicited messages, so a readable
    connection during a wait means the service is gone."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def park_then_close():
        conn, _addr = listener.accept()
        with conn, conn.makefile("rb") as lines:
            for reply in ({"type": "welcome", "version": PROTOCOL_VERSION,
                           "heartbeat_interval": 60.0},
                          {"type": "wait", "seconds": 30}):
                lines.readline()
                conn.sendall(encode_message(reply))

    server = threading.Thread(target=park_then_close, daemon=True)
    server.start()
    try:
        started = time.monotonic()
        stats = run_worker("127.0.0.1", port, name="parked",
                           connect_timeout=5.0)
        elapsed = time.monotonic() - started
    finally:
        server.join(timeout=10.0)
        listener.close()
    assert not server.is_alive()
    assert stats["waits"] == 1 and stats["cells"] == 0
    assert elapsed < 5.0, f"parked worker took {elapsed:.1f}s to leave"


# --------------------------------------------------------------------------- #
# Dynamic balancing beats static sharding on a straggler fleet
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("batch_size", [1, 4], ids=["batch-1", "batch-4"])
def test_straggler_fleet_beats_static_sharding_and_stays_bitwise(
        tmp_path, straggler_monolithic, batch_size):
    mono_store, per_cell = straggler_monolithic
    total = STRAGGLER_SWEEP.size
    # The slow worker sleeps `throttle` per cell.  Under a static 2-way
    # partition it would own ceil(total/2) = 4 cells, and a fixed cut of 4
    # would park a full lease on it, so either way its *sleep time alone*
    # bounds the run from below at 4*throttle.  Leasing should instead hand
    # almost everything to the fast worker: the whole run costs at most a
    # first lease of straggler cells plus the fast worker's compute, which
    # stays under the bound as long as throttle > spawn + total*c — hence
    # the self-calibrating margin below.
    throttle = max(2.0, 4 * per_cell + 4.0)
    static_lower_bound = (total - total // 2) * throttle

    store = ResultStore(tmp_path / "straggler")
    started = time.monotonic()
    summary = execute_sweep_distributed(
        STRAGGLER_SWEEP, store=store, workers=2, batch_size=batch_size,
        worker_options=[{"name": "slow", "throttle": throttle},
                        {"name": "fast"}])
    dynamic_wall = time.monotonic() - started

    assert dynamic_wall < static_lower_bound, (
        f"dynamic run took {dynamic_wall:.2f}s, static sleep-only lower "
        f"bound is {static_lower_bound:.2f}s")
    counts = summary["distrib"]["cells_by_worker"]
    slow_cells = sum(count for worker, count in counts.items()
                     if worker.startswith("slow"))
    assert slow_cells < total  # the fast worker picked up the slack
    if batch_size > 1:
        # If the straggler connects first it sees a fleet of one, so its
        # first lease is the largest it can get; the fast worker drains
        # the rest while it sleeps.
        assert slow_cells <= adaptive_batch(total, fleet=1,
                                            max_batch=batch_size)
    assert store.path_for("sweep").read_bytes() == \
        mono_store.path_for("sweep").read_bytes()


# --------------------------------------------------------------------------- #
# Protocol and progress units (no sockets, no simulation)
# --------------------------------------------------------------------------- #
def test_message_encoding_is_canonical_and_validated():
    message = {"type": "lease", "lease_id": 7, "keys": ["aa", "bb"]}
    line = encode_message(message)
    assert line.endswith(b"\n") and b"\n" not in line[:-1]
    assert decode_message(line.decode()) == message
    # Canonical: key order does not change the bytes.
    assert encode_message({"keys": ["aa", "bb"], "lease_id": 7,
                           "type": "lease"}) == line
    with pytest.raises(ProtocolError, match="undecodable"):
        decode_message("{not json")
    with pytest.raises(ProtocolError, match="'type'"):
        decode_message('["a", "list"]')
    with pytest.raises(ProtocolError, match="'type'"):
        decode_message('{"no_type": 1}')


def test_progress_reporter_rate_eta_and_throttling():
    clock = [0.0]
    stream = io.StringIO()
    reporter = ProgressReporter(total=10, label="t", stream=stream,
                                interval=1.0, clock=lambda: clock[0])
    clock[0] = 2.0
    reporter.update(2)                      # 1 cell/s -> ETA 8s
    clock[0] = 2.5
    reporter.update(3)                      # throttled: within the interval
    clock[0] = 4.0
    reporter.update(4, extra="2 workers")
    clock[0] = 5.0
    reporter.update(10)                     # completion always emits
    lines = stream.getvalue().splitlines()
    assert len(lines) == 3                  # the throttled update is absent
    assert "2/10 cells (20.0%), 1.00 cells/s, ETA 8s" in lines[0]
    assert "2 workers" in lines[1]
    assert "10/10" in lines[2] and "done" in lines[2]


def test_format_eta_renders_compact_durations():
    assert format_eta(12) == "12s"
    assert format_eta(95) == "1m35s"
    assert format_eta(3700) == "1h01m"
