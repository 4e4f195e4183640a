"""The multi-sweep service: tenancy, scheduling, cancellation, robustness.

Four contracts layered on top of the single-sweep guarantees that
``test_distrib.py`` pins:

* **concurrent tenants stay byte-identical** — two sweeps submitted to one
  service, drained by one sweep-agnostic fleet (with a worker SIGKILLed
  mid-lease), each produce a store byte-identical to their monolithic
  ``execute_sweep`` references;
* **weighted-fair priority scheduling** — lease hand-out follows
  ``priority / (leased + 1)`` exactly, so the split is deterministic;
* **cancellation drains, compacts, stays mergeable** — pending cells are
  dropped at once, in-flight leases land and are journaled, and the
  compacted partial is a well-formed keyed store;
* **protocol robustness** — version mismatches and malformed / truncated /
  oversized lines cost the *sender* its connection (with a versioned error
  where the socket still works) and never the service: other tenants keep
  running and interrupted leases return to their queues.
"""

import doctest
import json
import multiprocessing
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.distrib.service
from repro.distrib import (
    PROTOCOL_VERSION,
    ClientError,
    ProtocolError,
    ServiceError,
    SweepService,
    adaptive_batch,
    cancel_sweep,
    connect,
    list_sweeps,
    schedule_score,
    submit_sweep,
    sweep_status,
    wait_for_sweep,
    worker_process_entry,
)
from repro.distrib.protocol import decode_message
from repro.engine import ExperimentEngine, ProgramCache, ResultStore
from repro.explore import SweepSpec, execute_sweep
from repro.telemetry import render_prometheus

#: Two disjoint 2-cell sweeps — the smallest honest multi-tenant workload.
ALPHA = SweepSpec(benchmarks=("crc32",), x_limits=(1.1, 1.5))
BETA = SweepSpec(benchmarks=("fdct",), x_limits=(1.1, 1.5))

SPAWN = multiprocessing.get_context("spawn")


def start_service(**kwargs) -> SweepService:
    kwargs.setdefault("port", 0)
    return SweepService(**kwargs).start()


def spawn_worker(service, **kwargs):
    process = SPAWN.Process(target=worker_process_entry,
                            args=(service.host, service.port),
                            kwargs=kwargs, daemon=True)
    process.start()
    return process


def sweep_stats(service, name):
    """One hosted sweep's live snapshot (the ``status`` verb's payload)."""
    return service.status_snapshot(name)[name]


def wait_until(predicate, timeout=60.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.05)


def fake_worker(service, name):
    """A raw protocol peer — lets tests misbehave in controlled ways."""
    stream = connect(service.host, service.port)
    stream.send({"type": "hello", "version": PROTOCOL_VERSION,
                 "worker": name, "role": "worker"})
    welcome = stream.recv()
    assert welcome["type"] == "welcome"
    assert welcome["version"] == PROTOCOL_VERSION
    return stream


def request(stream):
    stream.send({"type": "request"})
    return stream.recv()


# --------------------------------------------------------------------------- #
# Policy units: adaptive batching and weighted fair share
# --------------------------------------------------------------------------- #
def test_service_module_doctests_execute():
    results = doctest.testmod(repro.distrib.service, verbose=False)
    assert results.attempted > 0 and results.failed == 0


@given(remaining=st.integers(min_value=1, max_value=100_000),
       fleet=st.integers(min_value=0, max_value=64),
       max_batch=st.integers(min_value=1, max_value=64))
@settings(max_examples=200, deadline=None)
def test_adaptive_batch_bounds_hold_for_any_queue_and_fleet(
        remaining, fleet, max_batch):
    cut = adaptive_batch(remaining, fleet, max_batch)
    assert 1 <= cut <= max_batch      # always leases something, never more
    assert cut <= remaining
    # An empty fleet is scheduled as if one worker were about to connect.
    eff_fleet = max(1, fleet)
    tail = repro.distrib.service.TAIL_LEASES_PER_WORKER
    # Deep queues always get the full batch (locality is preserved)...
    if remaining >= eff_fleet * tail * max_batch:
        assert cut == max_batch
    # ...and the final cells are handed out one at a time.
    if remaining <= eff_fleet * tail:
        assert cut == 1


def test_adaptive_batch_empty_queue_and_tail_shape():
    assert adaptive_batch(0, 4, 8) == 0
    assert adaptive_batch(-3, 4, 8) == 0
    # Monotone in remaining: a fuller queue never gets a smaller cut.
    cuts = [adaptive_batch(r, fleet=2, max_batch=4) for r in range(1, 64)]
    assert cuts == sorted(cuts)


def test_priority_three_to_one_lease_split_is_deterministic(tmp_path):
    """With one idle worker, the first four leases split 3:1 by score."""
    service = start_service()
    stream = None
    try:
        service.submit(SweepSpec(benchmarks=("crc32",),
                                 x_limits=(1.1, 1.2, 1.3, 1.4)),
                       "hot", priority=3, batch_size=1)
        service.submit(SweepSpec(benchmarks=("fdct",),
                                 x_limits=(1.1, 1.2, 1.3, 1.4)),
                       "cold", priority=1, batch_size=1)
        stream = fake_worker(service, "idle")
        grants = []
        for _ in range(4):
            lease = request(stream)
            assert lease["type"] == "lease" and len(lease["keys"]) == 1
            grants.append(lease["sweep"])
        # score(hot)=3/1,3/2,3/3 beats score(cold)=1 thrice (ties break to
        # the higher priority); only then does the cold sweep get a turn.
        assert grants == ["hot", "hot", "hot", "cold"]
    finally:
        if stream is not None:
            stream.close()
        service.shutdown()


def test_lease_carries_sweep_name_and_rebuildable_spec():
    service = start_service()
    stream = None
    try:
        service.submit(ALPHA, "alpha", batch_size=1)
        stream = fake_worker(service, "w")
        lease = request(stream)
        assert lease["sweep"] == "alpha"
        rebuilt = SweepSpec.from_meta(
            json.loads(json.dumps(lease["spec"])))
        assert lease["keys"][0] in {c.key for c in rebuilt.cells()}
    finally:
        if stream is not None:
            stream.close()
        service.shutdown()


# --------------------------------------------------------------------------- #
# Concurrent tenants: byte-identical stores, even with a SIGKILLed worker
# --------------------------------------------------------------------------- #
def test_two_concurrent_sweeps_drain_to_byte_identical_stores(tmp_path):
    reference = ResultStore(tmp_path / "ref")
    engine = ExperimentEngine(cache=ProgramCache())
    execute_sweep(ALPHA, store=reference, name="alpha", engine=engine,
                  max_workers=1)
    execute_sweep(BETA, store=reference, name="beta", engine=engine,
                  max_workers=1)

    store = ResultStore(tmp_path / "svc")
    service = start_service(store=store, drain_when_idle=True,
                            checkpoint_every=1)
    victim = fleet = None
    try:
        service.submit(ALPHA, "alpha", priority=2, batch_size=1)
        service.submit(BETA, "beta", batch_size=1)
        # The victim computes its first leased cell, then sleeps ~60 s —
        # a wide-open window in which to SIGKILL it mid-lease.
        victim = spawn_worker(service, name="victim", throttle=60.0)
        wait_until(lambda: any(
            snap["leased"] for snap in service.status_snapshot().values()),
            message="the victim to take a lease")
        victim.kill()
        victim.join(timeout=30.0)
        fleet = spawn_worker(service, name="replacement")
        assert service.wait("alpha", 180.0) and service.wait("beta", 180.0)
        alpha, beta = service.summary("alpha"), service.summary("beta")
    finally:
        service.shutdown()
        for process in (victim, fleet):
            if process is not None:
                process.join(timeout=10.0)
                if process.is_alive():
                    process.terminate()

    assert alpha["computed"] == ALPHA.size and beta["computed"] == BETA.size
    # The dropped connection re-queued the victim's batch into whichever
    # sweep it came from.
    assert alpha["distrib"]["requeued_batches"] \
        + beta["distrib"]["requeued_batches"] >= 1
    for name in ("alpha", "beta"):
        assert not store.journal_path(name).exists()
        assert store.path_for(name).read_bytes() == \
            reference.path_for(name).read_bytes()


# --------------------------------------------------------------------------- #
# Cancellation: drain, compact, stay mergeable; other tenants untouched
# --------------------------------------------------------------------------- #
def test_cancel_drains_inflight_lease_and_compacts_partial(tmp_path):
    store = ResultStore(tmp_path / "partial")
    service = start_service(store=store, checkpoint_every=1)
    stream = None
    try:
        job = service.submit(SweepSpec(benchmarks=("crc32",),
                                       x_limits=(1.1, 1.2, 1.3, 1.4)),
                             "doomed", batch_size=1)
        keys = [cell.key for cell in job.ledger.cells]
        survivor = service.submit(BETA, "survivor", batch_size=1)

        stream = fake_worker(service, "w")
        first = request(stream)
        done_key = first["keys"][0]
        stream.send({"type": "result", "lease_id": first["lease_id"],
                     "sweep": first["sweep"],
                     "records": [{"cell_key": done_key, "energy": 1.0}]})
        wait_until(lambda: service.status_snapshot(
            first["sweep"])[first["sweep"]]["done"] == 1,
            message="the first fabricated result to land")
        # Leave a second lease in flight, then cancel its sweep.
        second = request(stream)
        snapshot = service.cancel("doomed")
        assert snapshot["status"] in ("cancelling", "cancelled")
        assert service.status_snapshot("doomed")["doomed"]["pending"] == 0

        # The in-flight lease drains: its (fabricated) result is accepted
        # and journaled, then the journal compacts into the partial store.
        inflight_key = second["keys"][0]
        stream.send({"type": "result", "lease_id": second["lease_id"],
                     "sweep": second["sweep"],
                     "records": [{"cell_key": inflight_key, "energy": 2.0}]})
        assert service.wait("doomed", 30.0)
        final = service.status_snapshot("doomed")["doomed"]
        assert final["status"] == "cancelled"
        expected = {key for key in (done_key, inflight_key)
                    if key in set(keys)}
        partial = store.load_keyed("doomed")
        assert set(partial) == expected
        assert not store.journal_path("doomed").exists()
        # Cancelled-sweep residue never leaks into the other tenant.
        assert not survivor.terminal
        assert service.status_snapshot("survivor")["survivor"]["pending"] \
            == BETA.size
        # EWMA throughput was tracked while results were landing.
        assert final["throughput"] is not None and final["throughput"] > 0
    finally:
        if stream is not None:
            stream.close()
        service.shutdown()


def test_cancelled_partial_resumes_to_byte_identical_full_store(tmp_path):
    """cancel → partial keyed store → resume completes it bitwise."""
    spec = ALPHA
    reference = ResultStore(tmp_path / "ref")
    execute_sweep(spec, store=reference, name="part",
                  engine=ExperimentEngine(cache=ProgramCache()),
                  max_workers=1)
    full = reference.load_keyed("part")

    store = ResultStore(tmp_path / "svc")
    service = start_service(store=store, checkpoint_every=1)
    stream = None
    try:
        service.submit(spec, "part", batch_size=1)
        stream = fake_worker(service, "w")
        lease = request(stream)
        key = lease["keys"][0]
        # Report the *real* record for the leased cell, then cancel.
        stream.send({"type": "result", "lease_id": lease["lease_id"],
                     "sweep": "part", "records": [full[key]]})
        wait_until(lambda: service.status_snapshot(
            "part")["part"]["done"] == 1, message="the result to land")
        service.cancel("part")
        assert service.wait("part", 30.0)
    finally:
        if stream is not None:
            stream.close()
        service.shutdown()

    assert set(store.load_keyed("part")) == {key}
    summary = execute_sweep(spec, store=store, name="part", resume=True,
                            engine=ExperimentEngine(cache=ProgramCache()),
                            max_workers=1)
    assert summary["skipped"] == 1
    assert store.path_for("part").read_bytes() == \
        reference.path_for("part").read_bytes()


# --------------------------------------------------------------------------- #
# Admission control and the wire client
# --------------------------------------------------------------------------- #
def test_submit_validates_names_priorities_and_batches(tmp_path):
    service = start_service()
    try:
        service.submit(ALPHA, "taken")
        with pytest.raises(ServiceError, match="already taken"):
            service.submit(BETA, "taken")
        with pytest.raises(ValueError, match="priority"):
            service.submit(BETA, "bad", priority=0)
        with pytest.raises(ValueError, match="batch_size"):
            service.submit(BETA, "bad", batch_size=0)
        with pytest.raises(ServiceError, match="store"):
            service.submit(BETA, "bad", resume=True)
        with pytest.raises(ServiceError, match="checkpoint_every"):
            service.submit(BETA, "bad", checkpoint_every=-1)
        with pytest.raises(ServiceError, match="no sweep named"):
            service.cancel("never-submitted")
    finally:
        service.shutdown()


def test_rejected_duplicate_submit_leaves_live_journal_intact(tmp_path):
    """A duplicate-name submit must not unlink the live sweep's journal.

    Regression: the stale-journal cleanup used to run *before* the
    name-uniqueness check, so a retrying wire client (lost 'submitted'
    reply) deleted the live sweep's checkpoints and the compacted final
    store silently lost every record journaled before the retry.
    """
    reference = ResultStore(tmp_path / "ref")
    execute_sweep(ALPHA, store=reference, name="alpha",
                  engine=ExperimentEngine(cache=ProgramCache()),
                  max_workers=1)
    full = reference.load_keyed("alpha")

    store = ResultStore(tmp_path / "svc")
    service = start_service(store=store, checkpoint_every=1)
    stream = None
    try:
        service.submit(ALPHA, "alpha", batch_size=1)
        stream = fake_worker(service, "w")
        first = request(stream)
        stream.send({"type": "result", "lease_id": first["lease_id"],
                     "sweep": "alpha",
                     "records": [full[first["keys"][0]]]})
        wait_until(lambda: store.journal_path("alpha").exists(),
                   message="the first journal checkpoint")
        with pytest.raises(ServiceError, match="already taken"):
            service.submit(ALPHA, "alpha")
        assert store.journal_path("alpha").exists()
        second = request(stream)
        stream.send({"type": "result", "lease_id": second["lease_id"],
                     "sweep": "alpha",
                     "records": [full[key] for key in second["keys"]]})
        assert service.wait("alpha", 30.0)
        assert service.summary("alpha")["computed"] == ALPHA.size
    finally:
        if stream is not None:
            stream.close()
        service.shutdown()
    assert store.path_for("alpha").read_bytes() == \
        reference.path_for("alpha").read_bytes()


class StallFirstEntry:
    """A lock whose first ``with`` waits for :attr:`go` before acquiring,
    so a test can hold one checkpoint write back while others proceed."""

    def __init__(self, lock):
        self._lock = lock
        self._first = None
        self.stalled = threading.Event()
        self.go = threading.Event()
        self.released = threading.Event()

    def __enter__(self):
        if self._first is None:
            self._first = threading.get_ident()
            self.stalled.set()
            self.go.wait(30.0)
        self._lock.acquire()

    def __exit__(self, *_exc):
        self._lock.release()
        if threading.get_ident() == self._first:
            self.released.set()


def test_late_checkpoint_batch_cannot_vanish_from_a_completed_store(
        tmp_path):
    """A checkpoint batch popped before the sweep completes but written
    after it must still be in the store, and must not leave a journal.

    Regression: the final write compacted the journal, so a batch still on
    its way to the journal was missing from a store that read completed,
    and landed in a fresh journal instead.
    """
    store = ResultStore(tmp_path / "race")
    service = start_service(store=store, checkpoint_every=1)
    stall = StallFirstEntry(service._journal_lock)
    service._journal_lock = stall
    early = late = None
    try:
        service.submit(ALPHA, "race", batch_size=1)
        early = fake_worker(service, "early")
        late = fake_worker(service, "late")
        leases = [request(early), request(late)]
        assert {key for lease in leases for key in lease["keys"]} == \
            {cell.key for cell in ALPHA.cells()}
        for stream, lease in zip((early, late), leases):
            stream.send({"type": "result", "lease_id": lease["lease_id"],
                         "sweep": "race",
                         "records": [{"cell_key": key, "energy": 1.0}
                                     for key in lease["keys"]]})
            if stream is early:
                # The early batch is popped from the tail and waits for the
                # journal lock while the late result completes the sweep.
                assert stall.stalled.wait(30.0)
        assert service.wait("race", 30.0)
        stall.go.set()
        assert stall.released.wait(30.0)
        summary = service.summary("race")
    finally:
        stall.go.set()
        for stream in (early, late):
            if stream is not None:
                stream.close()
        service.shutdown()
    assert summary["status"] == "completed"
    assert store.load_keyed("race") == \
        {record["cell_key"]: record for record in summary["records"]}
    assert not store.journal_path("race").exists()


def test_cells_by_worker_counters_are_per_sweep():
    """summary/status report the sweep's own worker counters, not the
    service-wide aggregate — tenants must not observe each other."""
    service = start_service()
    streams = []
    try:
        for spec, name, worker in ((ALPHA, "alpha", "miner"),
                                   (BETA, "beta", "smith")):
            service.submit(spec, name)
            stream = fake_worker(service, worker)
            streams.append(stream)
            leased = 0
            while leased < spec.size:  # adaptive cuts may split the sweep
                lease = request(stream)
                assert lease["type"] == "lease" and lease["sweep"] == name
                stream.send({"type": "result",
                             "lease_id": lease["lease_id"], "sweep": name,
                             "records": [{"cell_key": key, "energy": 1.0}
                                         for key in lease["keys"]]})
                leased += len(lease["keys"])
            assert service.wait(name, 30.0)
        for name, spec, worker in (("alpha", ALPHA, "miner"),
                                   ("beta", BETA, "smith")):
            stats = sweep_stats(service, name)["cells_by_worker"]
            summary = service.summary(name)["distrib"]["cells_by_worker"]
            assert stats == summary
            assert sum(stats.values()) == spec.size
            assert all(peer.startswith(worker) for peer in stats)
    finally:
        for stream in streams:
            stream.close()
        service.shutdown()


def test_wire_client_submit_status_list_cancel_roundtrip():
    service = start_service()
    try:
        reply = submit_sweep(service.host, service.port, ALPHA, "wired",
                             priority=2)
        assert reply["cells"] == ALPHA.size and reply["priority"] == 2

        status = sweep_status(service.host, service.port)
        assert status["wired"]["status"] == "running"
        assert status["wired"]["pending"] == ALPHA.size
        assert status["wired"]["eta_seconds"] is None  # no throughput yet

        names = [entry["name"]
                 for entry in list_sweeps(service.host, service.port)]
        assert names == ["wired"]

        # A duplicate wire submit is an error *reply*, not a dead service.
        with pytest.raises(ClientError, match="already taken"):
            submit_sweep(service.host, service.port, ALPHA, "wired")
        # So is a sweep naming an unknown benchmark, an out-of-range axis
        # value or a repeated one: it is refused at the door instead of
        # being leased to workers that would die on it.
        for axis, values, message in (
                ("benchmarks", ["nosuch"], "unknown benchmarks ['nosuch']"),
                ("x_limits", [0.5], "sweep axis 'x_limits' values must"),
                ("x_limits", [float("nan")], "sweep axis 'x_limits'"),
                ("r_spares", [-64], "sweep axis 'r_spares'"),
                ("flash_ram_ratios", [0], "sweep axis 'flash_ram_ratios'"),
                ("x_limits", [1.1, 1.1],
                 "sweep axis 'x_limits' repeats the value 1.1")):
            with connect(service.host, service.port) as stream:
                stream.send({"type": "hello", "version": PROTOCOL_VERSION,
                             "worker": "client", "role": "client"})
                assert stream.recv()["type"] == "welcome"
                stream.send({"type": "submit", "name": "typo",
                             "sweep": dict(ALPHA.meta(), **{axis: values})})
                reply = stream.recv()
            assert reply["type"] == "error"
            assert f"submit rejected: {message}" in reply["message"]

        snapshot = cancel_sweep(service.host, service.port, "wired")
        assert snapshot["status"] == "cancelled"  # nothing was in flight
        final = wait_for_sweep(service.host, service.port, "wired",
                               timeout=10.0)
        assert final["status"] == "cancelled"
    finally:
        service.shutdown()


def test_wire_submit_honors_store_and_checkpoint_every(tmp_path):
    """The documented optional submit fields are applied, not ignored."""
    service = start_service()  # no service-wide store at all
    stream = None
    try:
        store = ResultStore(tmp_path / "wire")
        submit_sweep(service.host, service.port, ALPHA, "wired",
                     batch_size=1, checkpoint_every=1,
                     store=str(tmp_path / "wire"))
        stream = fake_worker(service, "w")
        first = request(stream)
        stream.send({"type": "result", "lease_id": first["lease_id"],
                     "sweep": "wired",
                     "records": [{"cell_key": first["keys"][0],
                                  "energy": 1.0}]})
        # checkpoint_every=1 into the submitted store directory — a journal
        # appears there after the very first result.
        wait_until(lambda: store.journal_path("wired").exists(),
                   message="a checkpoint in the wire-submitted store")
        second = request(stream)
        stream.send({"type": "result", "lease_id": second["lease_id"],
                     "sweep": "wired",
                     "records": [{"cell_key": key, "energy": 1.0}
                                 for key in second["keys"]]})
        assert service.wait("wired", 30.0)
        assert store.path_for("wired").exists()
        assert not store.journal_path("wired").exists()  # compacted
        # A malformed store path is rejected with the service's own message.
        with pytest.raises(ClientError, match="'store' must be"):
            submit_sweep(service.host, service.port, BETA, "bad-store",
                         store="")
    finally:
        if stream is not None:
            stream.close()
        service.shutdown()


def test_client_reports_unreachable_service_cleanly():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        unused_port = probe.getsockname()[1]
    with pytest.raises(ClientError, match="could not complete"):
        sweep_status("127.0.0.1", unused_port)


# --------------------------------------------------------------------------- #
# Protocol robustness: version negotiation and per-connection containment
# --------------------------------------------------------------------------- #
def test_version_mismatch_fails_loudly_with_versioned_error():
    service = start_service()
    try:
        for bad in (1, None, "two", PROTOCOL_VERSION + 1):
            with connect(service.host, service.port) as stream:
                hello = {"type": "hello", "worker": "old"}
                if bad is not None:
                    hello["version"] = bad
                stream.send(hello)
                reply = stream.recv()
                assert reply["type"] == "error"
                assert reply["version"] == PROTOCOL_VERSION
                assert "protocol version mismatch" in reply["message"]
        # Control verbs also refuse to run before a negotiated hello.
        with connect(service.host, service.port) as stream:
            stream.send({"type": "submit", "sweep": ALPHA.meta(),
                         "name": "sneaky"})
            reply = stream.recv()
            assert reply["type"] == "error"
            assert "version-negotiated" in reply["message"]
        assert service.status_snapshot() == {}  # nothing was admitted
    finally:
        service.shutdown()


def test_result_relabelled_across_sweeps_is_rejected_and_requeued():
    """A leased result is routed by its lease, not the worker's say-so.

    Regression: routing preferred the message's 'sweep' field, so a
    mislabelled result decremented the *wrong* tenant's leased count and
    left the true owner's lease stranded forever (already popped, invisible
    to the reaper) — the owning sweep could hang at 'cancelling' or never
    finish.
    """
    service = start_service()
    stream = None
    try:
        service.submit(ALPHA, "hot", batch_size=1)
        service.submit(BETA, "cold", batch_size=1)
        stream = fake_worker(service, "liar")
        lease = request(stream)
        assert lease["sweep"] == "hot"  # earlier submission wins the tie
        stream.send({"type": "result", "lease_id": lease["lease_id"],
                     "sweep": "cold",
                     "records": [{"cell_key": lease["keys"][0],
                                  "energy": 1.0}]})
        reply = stream.recv()
        assert reply["type"] == "error"
        assert "belongs to sweep 'hot'" in reply["message"]
        # The lease settled on its own sweep: cells back in hot's queue,
        # nothing leaked into cold's counters.
        hot = sweep_stats(service, "hot")
        assert hot["pending"] == ALPHA.size and hot["leased"] == 0
        assert hot["requeued_batches"] == 1 and hot["done"] == 0
        cold = sweep_stats(service, "cold")
        assert cold["pending"] == BETA.size and cold["leased"] == 0
        assert cold["done"] == 0
    finally:
        if stream is not None:
            stream.close()
        service.shutdown()


@given(line=st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_decoder_rejects_arbitrary_text_with_protocol_error_only(line):
    """Whatever bytes arrive, decode yields a dict-with-type or one error."""
    try:
        message = decode_message(line)
    except ProtocolError:
        return
    assert isinstance(message, dict) and isinstance(message["type"], str)


GARBAGE_LINES = [
    b"{not json at all\n",
    b'["a", "list", "not", "an", "object"]\n',
    b'{"type": 42}\n',
    b'{"no_type": true}\n',
    b'"just a string"\n',
    b"\xff\xfe\x00garbage bytes\n",
    b'{"type": "launch-missiles"}\n',
]


@pytest.mark.parametrize("garbage", GARBAGE_LINES,
                         ids=[repr(g[:20]) for g in GARBAGE_LINES])
def test_malformed_lines_cost_only_their_own_connection(garbage):
    service = start_service()
    try:
        service.submit(ALPHA, "steady", batch_size=1)
        with socket.create_connection((service.host, service.port),
                                      timeout=10.0) as raw:
            raw.sendall(garbage)
            # The service answers with an error line (when it can still
            # frame one) and drops the connection.
            raw.settimeout(10.0)
            data = raw.recv(65536)
            if data:
                reply = json.loads(data.decode("utf-8").splitlines()[0])
                assert reply["type"] == "error"
        # The service survived: a well-formed client still gets served.
        status = sweep_status(service.host, service.port)
        assert status["steady"]["status"] == "running"
        assert status["steady"]["pending"] == ALPHA.size
    finally:
        service.shutdown()


def test_truncated_and_oversized_lines_do_not_strand_leases(monkeypatch):
    monkeypatch.setattr("repro.distrib.protocol.MAX_LINE_BYTES", 4096)
    service = start_service()
    try:
        job = service.submit(ALPHA, "steady", batch_size=1)
        total = len(job.ledger.cells)

        # A worker takes a lease, then sends an oversized line: the
        # connection dies, the lease must return to the queue.
        stream = fake_worker(service, "bloated")
        lease = request(stream)
        assert lease["type"] == "lease"
        wait_until(lambda: sweep_stats(service, "steady")["pending"]
                   == total - 1, message="the lease to leave the queue")
        stream.send({"type": "result", "lease_id": lease["lease_id"],
                     "sweep": "steady",
                     "records": [{"cell_key": "x" * 8192}]})
        wait_until(lambda: sweep_stats(service, "steady")["pending"] == total,
                   timeout=30.0, message="the oversized sender's lease "
                   "to be re-queued")
        stream.close()

        # Truncated line (EOF mid-message, no newline): same containment.
        stream = fake_worker(service, "cutoff")
        lease = request(stream)
        stream._sock.sendall(b'{"type": "result", "lease_id"')
        stream._sock.shutdown(socket.SHUT_WR)
        wait_until(lambda: sweep_stats(service, "steady")["pending"] == total,
                   timeout=30.0,
                   message="the truncated sender's lease to be re-queued")
        stream.close()

        assert sweep_stats(service, "steady")["failure"] is None
        assert sweep_stats(service, "steady")["status"] == "running"
    finally:
        service.shutdown()


# --------------------------------------------------------------------------- #
# Observability: per-sweep EWMA/ETA snapshots and Prometheus labels
# --------------------------------------------------------------------------- #
def test_metrics_snapshot_aggregates_and_labels_per_sweep():
    service = start_service()
    stream = None
    try:
        service.submit(ALPHA, "alpha", priority=2, batch_size=1)
        service.submit(BETA, "beta", batch_size=1)
        stream = fake_worker(service, "w")
        lease = request(stream)
        key = lease["keys"][0]
        stream.send({"type": "result", "lease_id": lease["lease_id"],
                     "sweep": lease["sweep"],
                     "records": [{"cell_key": key, "energy": 1.0}]})
        wait_until(lambda: service.metrics_snapshot()["done"] == 1,
                   message="the fabricated result to land")

        snapshot = service.metrics_snapshot()
        assert snapshot["sweeps_hosted"] == 2
        assert snapshot["total"] == ALPHA.size + BETA.size
        assert set(snapshot["sweeps"]) == {"alpha", "beta"}
        assert snapshot["sweeps"][lease["sweep"]]["throughput"] > 0

        text = render_prometheus(snapshot)
        assert "repro_queue_depth" in text        # aggregate plane intact
        assert 'repro_sweep_queue_depth{sweep="alpha"}' in text
        assert 'repro_sweep_priority{sweep="alpha"} 2' in text
        assert 'repro_sweep_status{sweep="beta",status="running"} 1' in text
        assert 'sweep="%s"' % lease["sweep"] in text
    finally:
        if stream is not None:
            stream.close()
        service.shutdown()
