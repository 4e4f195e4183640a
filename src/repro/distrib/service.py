"""The multi-sweep service: named sweeps, priorities, adaptive leases.

:class:`SweepService` is the one host of every distributed sweep: a
long-lived, multi-tenant server in which any number of **named sweeps**
live concurrently, each with its own queue, store file, journal
checkpoints and counters, all served by one sweep-agnostic worker fleet
over the JSON-lines protocol (`repro.distrib.protocol`, version 2).  With
``drain_when_idle=True`` it releases its workers once every submitted
sweep is terminal — the shape of ``repro-eval serve --drain`` and of the
one-machine ``execute_sweep(..., workers=N)`` path.

* **Named sweeps.**  ``submit()`` (in process or over the wire) registers a
  :class:`SweepJob` under a unique name.  Every job keeps its own pending
  queue, stored/completed records, journal tail and throughput EWMA, so
  tenants cannot observe each other through shared counters or shared
  store files.
* **Priority scheduling.**  Leases are handed out by weighted fair share:
  each admitting job is scored ``priority / (leased_cells + 1)`` and the
  highest score wins (ties break to higher priority, then submission
  order).  A priority-3 sweep therefore holds ~3x the outstanding cells of
  a priority-1 sweep on the same fleet, and the shares rebalance instantly
  when sweeps are submitted or cancelled mid-run (see
  :func:`schedule_score`).
* **Adaptive lease tails.**  Every lease takes
  ``adaptive_batch(remaining, fleet, max_batch)`` cells, which equals
  ``max_batch`` while the queue is deep and shrinks toward 1 as the
  remaining-work/fleet ratio drops — the hp-adaptive-FEM rebalancing
  insight that a draining queue must be spread thin so no straggler holds
  the tail (``tests/test_distrib.py`` pins the win over the sleep-only
  bound of fixed cuts).
* **Cancellation.**  ``cancel()`` stops leasing a sweep immediately;
  in-flight leases drain (their results are still accepted and journaled),
  then the journal is compacted so the partial store is a well-formed keyed
  store — mergeable and resumable like any shard.
* **The invariant.**  Per sweep, nothing changed: every completed sweep's
  store is **byte-identical** to a monolithic ``execute_sweep`` of the same
  spec, no matter how many tenants shared the fleet, how leases were
  interleaved, re-leased or duplicated, or which workers were SIGKILLed
  (CI submits two concurrent sweeps, cancels a third, kills a worker, and
  ``cmp``s every completed store against its monolithic reference).

Failure is per-tenant: a sweep whose fleet produces conflicting duplicate
records (or whose journal write fails) flips to ``failed`` and stops
leasing, without disturbing the other tenants.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.distrib.progress import ProgressReporter
from repro.distrib.protocol import (
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
)
from repro.engine.results import ResultStore
from repro.explore.sweep import (
    SweepCell,
    SweepSpec,
    load_resumable_records,
    shard_cells,
)
from repro.telemetry import RateEwma, get_telemetry
from repro.telemetry.metrics import percentile

#: Ceiling on cells per lease.  Small enough that a straggler holds little
#: work, large enough that a deep-queue batch amortizes one compile.
DEFAULT_BATCH_SIZE = 4

#: Seconds a lease may go without a heartbeat before it is re-queued.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Completed cells between journal checkpoints.
DEFAULT_CHECKPOINT_EVERY = 32

#: Adaptive batching aims to leave every connected worker about this many
#: more leases before a sweep's queue runs dry, so the tail is spread
#: across the fleet instead of parked in one straggler's batch.
TAIL_LEASES_PER_WORKER = 4

#: Job life cycle.  ``running`` admits leases; ``cancelling`` drains
#: in-flight leases; the last three are terminal.
JOB_RUNNING = "running"
JOB_CANCELLING = "cancelling"
JOB_COMPLETED = "completed"
JOB_CANCELLED = "cancelled"
JOB_FAILED = "failed"
TERMINAL_STATES = (JOB_COMPLETED, JOB_CANCELLED, JOB_FAILED)


class ServiceError(RuntimeError):
    """A sweep cannot be admitted, found, finished or trusted."""


def adaptive_batch(remaining: int, fleet: int, max_batch: int,
                   tail_leases: int = TAIL_LEASES_PER_WORKER) -> int:
    """Cells to lease from a queue of *remaining* cells to a *fleet*.

    The policy: while the queue is deep every lease takes ``max_batch``
    cells (locality — a batch usually shares one compiled program); once
    ``remaining`` falls under ``fleet * tail_leases * max_batch`` the cut
    shrinks so that roughly ``tail_leases`` leases per worker remain,
    bottoming out at single-cell leases for the final stretch.  This is the
    dynamic-load-balancing tail rule: a draining queue handed out in big
    fixed batches ends with one worker holding the whole tail, while a
    shrinking cut keeps every worker busy to the end.

    >>> adaptive_batch(remaining=1000, fleet=2, max_batch=4)
    4
    >>> adaptive_batch(remaining=16, fleet=2, max_batch=4)
    2
    >>> adaptive_batch(remaining=3, fleet=2, max_batch=4)
    1
    """
    if remaining <= 0:
        return 0
    fleet = max(1, fleet)
    target = -(-remaining // (fleet * max(1, tail_leases)))  # ceil division
    return max(1, min(max_batch, target))


def schedule_score(priority: int, leased_cells: int) -> float:
    """Weighted-fair-share score of one admitting sweep.

    The next lease goes to the sweep with the highest score, so the
    steady-state outstanding-cell shares converge to the priority ratio:

    >>> schedule_score(3, leased_cells=1) > schedule_score(1, leased_cells=0)
    True
    >>> schedule_score(1, leased_cells=0) > schedule_score(3, leased_cells=3)
    True
    """
    return priority / (leased_cells + 1.0)


@dataclass
class Lease:
    """One outstanding batch: which sweep, who holds it, until when."""

    lease_id: int
    sweep: str
    keys: List[str]
    worker: str
    deadline: float
    #: Monotonic grant time; completion minus grant is the lease latency
    #: sampled by the metrics plane.
    granted: float = 0.0


@dataclass
class SweepJob:
    """Per-tenant state of one named sweep hosted by the service.

    One copy per tenant; the service's lock guards all of it.
    """

    name: str
    sweep: SweepSpec
    store: Optional[ResultStore]
    priority: int
    order: int
    max_batch: int
    checkpoint_every: int
    resume: bool
    meta: Dict
    cells: List[SweepCell] = field(default_factory=list)
    by_key: Dict[str, SweepCell] = field(default_factory=dict)
    stored: Dict[str, Dict] = field(default_factory=dict)
    pending: Deque[str] = field(default_factory=deque)
    completed: Dict[str, Dict] = field(default_factory=dict)
    journal_tail: List[Dict] = field(default_factory=list)
    journaled: bool = False
    status: str = JOB_RUNNING
    failure: Optional[str] = None
    requeued: int = 0
    duplicates: int = 0
    dropped_after_terminal: int = 0
    leased_cells: int = 0
    cells_by_worker: Dict[str, int] = field(default_factory=dict)
    rate: RateEwma = field(default_factory=RateEwma)
    done: "threading.Event" = field(default_factory=threading.Event)
    store_path: Optional[str] = None
    reporter: Optional[ProgressReporter] = None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def done_cells(self) -> int:
        return len(self.completed) + len(self.stored)

    def snapshot(self, now: float) -> Dict:
        """Point-in-time per-sweep stats (status verb, metrics, progress)."""
        throughput = self.rate.rate
        remaining = len(self.pending) + self.leased_cells
        if self.status == JOB_COMPLETED or remaining <= 0:
            eta: Optional[float] = 0.0
        elif throughput:
            eta = remaining / throughput
        else:
            eta = None
        return {
            "status": self.status,
            "priority": self.priority,
            "total": len(self.cells),
            "done": self.done_cells,
            "computed": len(self.completed),
            "skipped": len(self.stored),
            "pending": len(self.pending),
            "leased": self.leased_cells,
            "requeued_batches": self.requeued,
            "duplicate_records": self.duplicates,
            "throughput": throughput,
            "eta_seconds": eta,
            "failure": self.failure,
            "store_path": self.store_path,
        }


class SweepService:
    """Serve many named sweeps to one sweep-agnostic worker fleet.

    Life cycle: construct → :meth:`start` (binds the listener, returns
    immediately) → :meth:`submit` sweeps (in process or via the ``submit``
    protocol verb) → workers connect and drain them → :meth:`wait` /
    :meth:`summary` per sweep.  All shared state is guarded by one lock;
    per-connection reader threads and the lease reaper are the only
    writers.  With ``drain_when_idle=True`` the service tells workers
    ``done`` once every submitted sweep is terminal (``serve --drain`` and
    the one-machine fleet); otherwise idle workers are parked with ``wait``
    so later submissions reuse the same fleet.
    """

    def __init__(self,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 store: Optional[ResultStore] = None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                 drain_when_idle: bool = False,
                 progress: bool = False):
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self.host = host
        self._requested_port = port
        self.store = store
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = max(0.2, lease_timeout / 4.0)
        self.checkpoint_every = checkpoint_every
        self.drain_when_idle = drain_when_idle
        self.progress = progress

        self._jobs: Dict[str, SweepJob] = {}
        self._job_order = 0
        self._leases: Dict[int, Lease] = {}
        self._next_lease_id = 1
        self._active_workers: Dict[str, int] = {}   # name -> completed cells
        self._connected = 0
        self._workers_seen = 0

        # Metrics plane (served to `repro-eval metrics` via the ``metrics``
        # protocol message; state lives here, no telemetry sink required).
        self._started = time.monotonic()
        self._overall_rate = RateEwma(start=self._started)
        self._worker_rates: Dict[str, RateEwma] = {}
        self._heartbeat_at: Dict[str, float] = {}
        self._lease_latencies: Deque[float] = deque(maxlen=256)
        self._reaped = 0

        self._lock = threading.Lock()
        #: Serializes journal/store file writes only — checkpoints fsync
        #: outside the state lock so disk latency never stalls lease
        #: hand-out or heartbeat processing for the rest of the fleet.
        self._journal_lock = threading.Lock()
        self._stop = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._streams: List[MessageStream] = []

    # ------------------------------------------------------------------ #
    # Server life cycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("service not started")
        return self._listener.getsockname()[1]

    def start(self) -> "SweepService":
        """Bind the listener and start serving; returns immediately."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        for target, tag in ((self._accept_loop, "accept"),
                            (self._reaper_loop, "reaper")):
            thread = threading.Thread(target=target, daemon=True,
                                      name=f"service-{tag}")
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self) -> None:
        """Stop serving (idempotent); outstanding connections get closed."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            streams = list(self._streams)
        for stream in streams:
            # Unblock client reader threads parked in recv(); each thread
            # closes its own stream on the way out (closing the buffered
            # reader from here would deadlock on its read lock).
            stream.interrupt()
        for thread in list(self._threads):
            thread.join(timeout=5.0)

    def drained(self) -> bool:
        """True once at least one sweep was submitted and all are terminal."""
        with self._lock:
            return bool(self._jobs) and all(job.terminal
                                            for job in self._jobs.values())

    # ------------------------------------------------------------------ #
    # Tenant management: submit / cancel / wait / summary
    # ------------------------------------------------------------------ #
    def submit(self, sweep: SweepSpec, name: str,
               store: Optional[ResultStore] = None,
               priority: int = 1,
               shard: Optional[Tuple[int, int]] = None,
               resume: bool = False,
               batch_size: int = DEFAULT_BATCH_SIZE,
               checkpoint_every: Optional[int] = None) -> SweepJob:
        """Admit *sweep* under the unique *name*; returns its live job.

        ``store`` defaults to the service-wide store root (the sweep's
        records land in ``<root>/<name>.json``); ``priority`` weights the
        lease scheduler; ``batch_size`` is the lease-size *ceiling* —
        actual cuts follow :func:`adaptive_batch`.  ``shard`` restricts the
        sweep to one ``(index, count)`` shard and ``resume`` skips the cells
        already in the store, exactly as on the in-process path.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if priority < 1:
            raise ValueError("priority must be >= 1")
        store = store if store is not None else self.store
        if resume and store is None:
            raise ServiceError("resume requires a result store")

        cells = sweep.cells()
        if shard is not None:
            cells = shard_cells(cells, shard[0], shard[1])
        by_key = {cell.key: cell for cell in cells}
        if len(by_key) != len(cells):
            raise ServiceError("cell_key collision within one sweep "
                               "(two distinct cells hashed identically)")
        meta = sweep.meta()
        if shard is not None:
            meta["shard"] = [shard[0], shard[1]]

        stored: Dict[str, Dict] = {}
        if resume:
            # Shared with the in-process resume path: axes validated before
            # any journal is folded, foreign stores/journals refused.
            stored = load_resumable_records(store, name, sweep, by_key)

        with self._lock:
            if name in self._jobs:
                raise ServiceError(
                    f"sweep name {name!r} is already taken in this service "
                    f"(status {self._jobs[name].status}); pick another name")
            if store is not None and not resume \
                    and store.journal_path(name).exists():
                # A fresh run overwrites the store; a stale journal from some
                # earlier crashed run must not leak into it at compaction
                # time.  Unlinked only after the name check above — a
                # rejected duplicate submit (e.g. a wire client retrying
                # after a lost reply) must never delete the live sweep's
                # journal checkpoints.
                store.journal_path(name).unlink()
            job = SweepJob(
                name=name, sweep=sweep, store=store, priority=priority,
                order=self._job_order, max_batch=batch_size,
                checkpoint_every=(self.checkpoint_every
                                  if checkpoint_every is None
                                  else checkpoint_every),
                resume=resume, meta=meta, cells=cells, by_key=by_key,
                stored=stored,
                pending=deque(c.key for c in cells if c.key not in stored),
                # Anchor the throughput EWMA at admission so the very first
                # completed batch already yields a rate (and an ETA).
                rate=RateEwma(start=time.monotonic()),
            )
            self._job_order += 1
            if self.progress:
                job.reporter = ProgressReporter(len(cells),
                                                label=f"distrib:{name}")
            self._jobs[name] = job
        if not job.pending:
            # Everything already stored (a completed resume): finalize now
            # so waiters and stores behave exactly like a computed run.
            self._maybe_finish(job)
        return job

    def cancel(self, name: str) -> Dict:
        """Stop leasing *name*; drain in-flight leases; keep the partial.

        Pending cells are dropped immediately.  Leases already out with
        workers are left to finish — their results are accepted and
        journaled like any others (at-least-once execution makes dropping
        them indistinguishable from losing a worker anyway).  Once the last
        lease resolves, the journal is compacted so the partial store is a
        well-formed, mergeable keyed store, and the job goes ``cancelled``.
        """
        finalize = False
        with self._lock:
            job = self._jobs.get(name)
            if job is None:
                raise ServiceError(f"no sweep named {name!r}")
            if job.terminal:
                return job.snapshot(time.monotonic())
            if job.status == JOB_RUNNING:
                job.status = JOB_CANCELLING
                job.pending.clear()
            finalize = job.leased_cells == 0
        if finalize:
            # No leases in flight: the job goes terminal before we return,
            # so the caller sees "cancelled", not a vacuous "cancelling".
            self._finalize_cancel(job)
        with self._lock:
            return job.snapshot(time.monotonic())

    def wait(self, name: str, timeout: Optional[float] = None) -> bool:
        """Block until sweep *name* reaches a terminal state."""
        return self._job(name).done.wait(timeout)

    def _job(self, name: str) -> SweepJob:
        with self._lock:
            job = self._jobs.get(name)
        if job is None:
            raise ServiceError(f"no sweep named {name!r}")
        return job

    def summary(self, name: str) -> Dict:
        """Finalized ``execute_sweep``-shaped summary of sweep *name*.

        Raises :class:`ServiceError` if the sweep failed (conflicting
        duplicate records, journal write failure) — a fleet that cannot
        reproduce a cell must not hand back a summary that looks like
        success.
        """
        job = self._job(name)
        if not job.done.is_set():
            raise RuntimeError(f"sweep {name!r} is not complete yet")
        with self._lock:
            if job.failure is not None:
                raise ServiceError(job.failure)
            combined = dict(job.stored)
            combined.update(job.completed)
            records = [combined[key] for key in sorted(combined)]
            meta = dict(job.meta)
            meta["cells"] = len(records)
            return {
                "records": records, "meta": meta, "cells": len(job.cells),
                "computed": len(job.completed),
                "skipped": len(job.stored), "rechecked": 0,
                "status": job.status,
                "path": job.store_path,
                "distrib": {
                    "workers": self._workers_seen,
                    "requeued_batches": job.requeued,
                    "duplicate_records": job.duplicates,
                    "cells_by_worker": dict(job.cells_by_worker),
                },
            }

    def status_snapshot(self, name: Optional[str] = None) -> Dict:
        """Per-sweep snapshots (the payload of the ``status`` verb)."""
        now = time.monotonic()
        with self._lock:
            if name is not None:
                job = self._jobs.get(name)
                if job is None:
                    raise ServiceError(f"no sweep named {name!r}")
                return {name: job.snapshot(now)}
            return {job_name: job.snapshot(now)
                    for job_name, job in sorted(self._jobs.items())}

    # ------------------------------------------------------------------ #
    # Accept / reaper threads
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(None)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(target=self._serve_client,
                                      args=(MessageStream(conn),),
                                      daemon=True, name="service-client")
            thread.start()
            self._threads.append(thread)

    def _reaper_loop(self) -> None:
        tick = min(1.0, self.lease_timeout / 4.0)
        while not self._stop.is_set():
            self._stop.wait(tick)
            now = time.monotonic()
            to_finalize: List[SweepJob] = []
            with self._lock:
                expired = [lease for lease in self._leases.values()
                           if lease.deadline < now]
                for lease in expired:
                    job = self._requeue_locked(lease)
                    if job is not None:
                        to_finalize.append(job)
                self._reaped += len(expired)
            for job in to_finalize:
                self._finalize_cancel(job)
            self._emit_progress()

    def _requeue_locked(self, lease: Lease) -> Optional[SweepJob]:
        """Return a lease's unfinished keys to its sweep's queue.

        Returns the job if this was the last in-flight lease of a
        *cancelling* sweep — the caller must finalize it outside the lock.
        """
        self._leases.pop(lease.lease_id, None)
        job = self._jobs.get(lease.sweep)
        if job is None:
            return None
        job.leased_cells = max(0, job.leased_cells - len(lease.keys))
        if job.status == JOB_RUNNING:
            unfinished = [key for key in lease.keys
                          if key not in job.completed
                          and key not in job.stored]
            if unfinished:
                job.pending.extendleft(reversed(unfinished))
                job.requeued += 1
        if job.status == JOB_CANCELLING and job.leased_cells == 0:
            return job
        return None

    # ------------------------------------------------------------------ #
    # Per-connection protocol
    # ------------------------------------------------------------------ #
    def _serve_client(self, stream: MessageStream) -> None:
        worker: Optional[str] = None
        negotiated = False
        with self._lock:
            self._streams.append(stream)
        try:
            while not self._stop.is_set():
                message = stream.recv()
                if message is None:
                    return  # peer gone; finally-block requeues its leases
                kind = message["type"]
                if kind == "hello":
                    version = message.get("version")
                    if version != PROTOCOL_VERSION:
                        raise ProtocolError(
                            f"protocol version mismatch: this service "
                            f"speaks version {PROTOCOL_VERSION}, the peer "
                            f"sent {version!r}; upgrade the older side")
                    negotiated = True
                    if message.get("role", "worker") == "worker":
                        worker = self._register(message)
                    stream.send({
                        "type": "welcome", "version": PROTOCOL_VERSION,
                        "heartbeat_interval": self.heartbeat_interval,
                        "sweeps": len(self._jobs),
                    })
                elif kind == "metrics":
                    # Observer request, allowed without a hello: a metrics
                    # scraper is not a worker and holds no leases.  The
                    # connection stays open so a monitor can poll.
                    stream.send({"type": "metrics",
                                 "snapshot": self.metrics_snapshot()})
                elif kind == "status":
                    stream.send({"type": "status",
                                 "sweeps": self.status_snapshot(
                                     message.get("sweep"))})
                elif kind == "list":
                    stream.send({"type": "sweeps",
                                 "sweeps": self._list_sweeps()})
                elif kind in ("submit", "cancel") and not negotiated:
                    raise ProtocolError(
                        f"{kind} requires a version-negotiated connection: "
                        f"send hello (version {PROTOCOL_VERSION}) first")
                elif kind == "submit":
                    stream.send(self._submit_from_wire(message))
                elif kind == "cancel":
                    name = message.get("sweep")
                    if not isinstance(name, str):
                        raise ProtocolError(
                            "cancel requires a 'sweep' name")
                    try:
                        snapshot = self.cancel(name)
                    except ServiceError as error:
                        raise ProtocolError(str(error)) from error
                    stream.send({"type": "cancelled", "sweep": name,
                                 "snapshot": snapshot})
                elif worker is None:
                    raise ProtocolError(f"first message must be hello, "
                                        f"got {kind!r}")
                elif kind == "request":
                    reply = self._assign(worker)
                    stream.send(reply)
                    if reply["type"] == "done":
                        return
                elif kind == "heartbeat":
                    self._extend_leases(worker)
                elif kind == "result":
                    self._complete(worker, message)
                elif kind == "error":
                    raise ProtocolError(
                        f"worker {worker} reported: {message.get('message')}")
                else:
                    raise ProtocolError(f"unknown message type {kind!r}")
        except (ProtocolError, ValueError, OSError) as error:
            # Per-connection containment: a malformed, truncated, oversized
            # or out-of-vocabulary message costs its sender the connection
            # (with a versioned error reply when the socket still works),
            # never the service — other tenants and workers are untouched,
            # and the finally-block below returns any leases to their
            # queues so no work is stranded.
            try:
                stream.send({"type": "error",
                             "version": PROTOCOL_VERSION,
                             "message": str(error)})
            except OSError:
                pass
        finally:
            to_finalize: List[SweepJob] = []
            with self._lock:
                for lease in list(self._leases.values()):
                    if lease.worker == worker:
                        job = self._requeue_locked(lease)
                        if job is not None:
                            to_finalize.append(job)
                if worker is not None:
                    self._connected -= 1
                if stream in self._streams:
                    self._streams.remove(stream)
                # Prune this handler from the join list — an elastic fleet
                # reconnects many times over a long service lifetime, and
                # the list must not grow (nor shutdown joins slow down)
                # with every connection that ever existed.
                try:
                    self._threads.remove(threading.current_thread())
                except ValueError:
                    pass
            for job in to_finalize:
                self._finalize_cancel(job)
            stream.close()
            self._emit_progress()

    def _register(self, message: Dict) -> str:
        base = str(message.get("worker") or "worker")
        with self._lock:
            self._workers_seen += 1
            self._connected += 1
            worker = f"{base}#{self._workers_seen}"
            self._active_workers.setdefault(worker, 0)
        return worker

    def _submit_from_wire(self, message: Dict) -> Dict:
        """Admit a sweep described by a ``submit`` protocol message."""
        meta = message.get("sweep")
        name = message.get("name")
        if not isinstance(meta, dict) or not isinstance(name, str) or not name:
            raise ProtocolError("submit requires a 'sweep' axes object "
                                "and a non-empty 'name'")
        store_dir = message.get("store")
        if store_dir is not None and (not isinstance(store_dir, str)
                                      or not store_dir):
            raise ProtocolError("submit 'store' must be a non-empty "
                                "directory path on the service host")
        checkpoint_every = message.get("checkpoint_every")
        try:
            sweep = SweepSpec.from_meta(meta)
            job = self.submit(
                sweep, name,
                store=ResultStore(store_dir) if store_dir else None,
                priority=int(message.get("priority", 1)),
                resume=bool(message.get("resume", False)),
                batch_size=int(message.get("batch_size",
                                           DEFAULT_BATCH_SIZE)),
                checkpoint_every=(None if checkpoint_every is None
                                  else int(checkpoint_every)))
        except (ServiceError, ValueError, TypeError) as error:
            raise ProtocolError(f"submit rejected: {error}") from error
        return {"type": "submitted", "sweep": name,
                "cells": len(job.cells), "pending": len(job.pending),
                "priority": job.priority}

    def _list_sweeps(self) -> List[Dict]:
        now = time.monotonic()
        with self._lock:
            return [dict(job.snapshot(now), name=name)
                    for name, job in sorted(self._jobs.items())]

    # ------------------------------------------------------------------ #
    # Lease scheduling
    # ------------------------------------------------------------------ #
    def _pick_job_locked(self) -> Optional[SweepJob]:
        best: Optional[SweepJob] = None
        best_rank: Tuple[float, int, int] = (-1.0, 0, 0)
        for job in self._jobs.values():
            if job.status != JOB_RUNNING or not job.pending:
                continue
            rank = (schedule_score(job.priority, job.leased_cells),
                    job.priority, -job.order)
            if rank > best_rank:
                best, best_rank = job, rank
        return best

    def _assign(self, worker: str) -> Dict:
        with self._lock:
            job = self._pick_job_locked()
            if job is None:
                if self.drain_when_idle and self._jobs and \
                        all(j.terminal for j in self._jobs.values()):
                    return {"type": "done"}
                return {"type": "wait", "seconds": 0.5}
            cut = adaptive_batch(len(job.pending), max(1, self._connected),
                                 job.max_batch)
            # Skip keys that were re-queued (expired lease) but completed
            # anyway before being re-leased — at-least-once execution means
            # a late result may beat its replacement to the queue, and
            # re-simulating a cell whose record is already held is waste.
            keys: List[str] = []
            while job.pending and len(keys) < cut:
                key = job.pending.popleft()
                if key not in job.completed and key not in job.stored:
                    keys.append(key)
            if not keys:
                return {"type": "wait", "seconds": 0.5}
            now = time.monotonic()
            lease = Lease(lease_id=self._next_lease_id, sweep=job.name,
                          keys=keys, worker=worker,
                          deadline=now + self.lease_timeout, granted=now)
            self._next_lease_id += 1
            self._leases[lease.lease_id] = lease
            job.leased_cells += len(keys)
            # Every worker that ever held a lease on this sweep appears in
            # its per-sweep counters — a SIGKILLed worker shows up with 0
            # completed cells rather than vanishing from the summary.
            job.cells_by_worker.setdefault(worker, 0)
            return {"type": "lease", "lease_id": lease.lease_id,
                    "sweep": job.name, "keys": keys, "spec": job.meta}

    def _extend_leases(self, worker: str) -> None:
        now = time.monotonic()
        deadline = now + self.lease_timeout
        with self._lock:
            self._heartbeat_at[worker] = now
            for lease in self._leases.values():
                if lease.worker == worker:
                    lease.deadline = deadline

    # ------------------------------------------------------------------ #
    # Completion, journaling, finalization
    # ------------------------------------------------------------------ #
    def _complete(self, worker: str, message: Dict) -> None:
        records = message.get("records")
        if not isinstance(records, list):
            raise ProtocolError("result message must carry a records list")
        now = time.monotonic()
        new_cells = 0
        to_journal: Optional[List[Dict]] = None
        finished = False
        cancel_drained = False
        with self._lock:
            # The lease may already be gone (expired and re-leased) — the
            # records are still valid work and go through the same duplicate
            # validation as any other completion (at-least-once execution).
            lease = self._leases.pop(message.get("lease_id"), None)
            if lease is not None:
                self._lease_latencies.append(now - lease.granted)
            self._heartbeat_at[worker] = now
            if lease is not None:
                # The lease is authoritative: route by its sweep and settle
                # its leased-cell count on that job, whatever the message
                # claims — otherwise a mislabelled result would decrement
                # the wrong tenant and leave the leased sweep hung forever
                # (the lease is already popped, so the reaper cannot
                # recover it).
                job = self._jobs.get(lease.sweep)
                if job is not None:
                    job.leased_cells = max(0, job.leased_cells
                                           - len(lease.keys))
                claimed = message.get("sweep")
                if isinstance(claimed, str) and claimed != lease.sweep:
                    # Return the batch's unfinished cells to their own
                    # queue before dropping the connection: the mismatch
                    # must not strand the lease's work.
                    if job is not None and job.status == JOB_RUNNING:
                        unfinished = [k for k in lease.keys
                                      if k not in job.completed
                                      and k not in job.stored]
                        if unfinished:
                            job.pending.extendleft(reversed(unfinished))
                            job.requeued += 1
                    raise ProtocolError(
                        f"result claims sweep {claimed!r} but lease "
                        f"{lease.lease_id} belongs to sweep "
                        f"{lease.sweep!r}")
            else:
                # A late result (its lease expired and was re-leased) goes
                # to the sweep it names; a result that still holds a live
                # lease was routed by the lease above, because a worker is
                # not trusted to relabel leased work across tenants.
                name = message.get("sweep")
                job = self._jobs.get(name) if isinstance(name, str) else None
            if job is None:
                raise ProtocolError(
                    f"result for unknown sweep "
                    f"{message.get('sweep')!r} (no live sweep owns it)")
            if job.terminal:
                # A straggler's results arriving after the sweep was
                # cancelled/failed: legitimate at-least-once residue, not
                # an error — count it and move on.
                job.dropped_after_terminal += len(records)
                return
            for record in records:
                key = record.get("cell_key") if isinstance(record, dict) \
                    else None
                if key not in job.by_key:
                    # Put the batch's unfinished cells back before dropping
                    # this connection: a bad result must not strand a lease.
                    if lease is not None and job.status == JOB_RUNNING:
                        unfinished = [k for k in lease.keys
                                      if k not in job.completed
                                      and k not in job.stored]
                        if unfinished:
                            job.pending.extendleft(reversed(unfinished))
                            job.requeued += 1
                    raise ProtocolError(
                        f"result for unknown cell {key!r} "
                        f"(not in sweep {job.name!r})")
                existing = job.completed.get(key, job.stored.get(key))
                if existing is not None:
                    job.duplicates += 1
                    if existing != record:
                        job.failure = (
                            f"cell {key} completed twice with DIFFERENT "
                            f"records (worker {worker}); the fleet is not "
                            f"bitwise-reproducible — refusing to write a "
                            f"store")
                        self._fail_locked(job)
                        return
                    continue
                job.completed[key] = record
                job.journal_tail.append(record)
                job.cells_by_worker[worker] = \
                    job.cells_by_worker.get(worker, 0) + 1
                self._active_workers[worker] = \
                    self._active_workers.get(worker, 0) + 1
                new_cells += 1
            if new_cells:
                self._overall_rate.observe(new_cells, now)
                job.rate.observe(new_cells, now)
                self._worker_rates.setdefault(
                    worker, RateEwma(start=self._started)
                ).observe(new_cells, now)
            if (job.store is not None and job.checkpoint_every
                    and len(job.journal_tail) >= job.checkpoint_every):
                to_journal = job.journal_tail
                job.journal_tail = []
                job.journaled = True
            if job.status == JOB_RUNNING and \
                    job.done_cells >= len(job.cells):
                finished = True
            if job.status == JOB_CANCELLING and job.leased_cells == 0:
                cancel_drained = True
        if to_journal:
            try:
                with self._journal_lock, \
                        get_telemetry().span("store.checkpoint",
                                             kind="journal", sweep=job.name,
                                             records=len(to_journal)):
                    job.store.append_journal(job.name, to_journal,
                                             meta=job.meta)
            except Exception as error:
                # The records were already popped from the tail; losing the
                # write silently would finalize a store missing cells while
                # claiming success.  Fail the sweep loudly instead.
                with self._lock:
                    job.failure = (
                        f"journal checkpoint failed ({error}); aborting "
                        f"rather than finalize a store with missing cells")
                    self._fail_locked(job)
                finished = cancel_drained = False
        if finished:
            self._finalize_complete(job)
        if cancel_drained:
            self._finalize_cancel(job)
        self._emit_progress(job)

    def _fail_locked(self, job: SweepJob) -> None:
        """Flip *job* to failed: stop leasing it, wake its waiters."""
        job.status = JOB_FAILED
        job.pending.clear()
        job.done.set()

    def _maybe_finish(self, job: SweepJob) -> None:
        """Finalize a job whose queue was empty at submission (resume)."""
        with self._lock:
            if job.terminal or job.done_cells < len(job.cells):
                return
        self._finalize_complete(job)

    def _finalize_complete(self, job: SweepJob) -> None:
        """Write sweep *job*'s canonical store and mark it completed.

        The write path is chosen exactly as a monolithic run would: journal
        compaction when checkpoints were written, keyed append on a resume,
        plain sorted save otherwise — that choice is what keeps the final
        bytes identical to ``execute_sweep`` of the same spec.
        """
        with self._lock:
            if job.terminal:
                return
            combined = dict(job.stored)
            combined.update(job.completed)
            records = [combined[key] for key in sorted(combined)]
            meta = dict(job.meta)
            meta["cells"] = len(records)
        try:
            if job.store is not None:
                with get_telemetry().span("store.checkpoint", kind="final",
                                          sweep=job.name,
                                          records=len(records)), \
                        self._journal_lock:
                    if job.journaled:
                        # Checkpoints were written; flush the tail and fold
                        # the journal into the canonical sorted store in
                        # one pass.
                        if job.journal_tail:
                            job.store.append_journal(
                                job.name, job.journal_tail, meta=job.meta)
                            job.journal_tail = []
                        path = job.store.compact_journal(
                            job.name, merge_store=job.resume)
                    elif job.resume:
                        path = job.store.append_keyed(
                            job.name, list(job.completed.values()),
                            meta=meta)
                    else:
                        path = job.store.save_keyed(job.name, records,
                                                    meta=meta)
                job.store_path = str(path)
        except Exception as error:
            with self._lock:
                job.failure = (f"finalizing the store for sweep "
                               f"{job.name!r} failed: {error}")
                self._fail_locked(job)
            return
        with self._lock:
            job.status = JOB_COMPLETED
            job.done.set()
        if job.reporter is not None:
            job.reporter.update(job.done_cells, extra="complete", force=True)

    def _finalize_cancel(self, job: SweepJob) -> None:
        """Drain-complete a cancelled sweep: flush, compact, mark."""
        with self._lock:
            if job.status != JOB_CANCELLING or job.leased_cells:
                return
            tail = job.journal_tail
            job.journal_tail = []
        try:
            if job.store is not None and (tail or job.journaled):
                with get_telemetry().span("store.checkpoint", kind="cancel",
                                          sweep=job.name,
                                          records=len(tail)), \
                        self._journal_lock:
                    if tail:
                        job.store.append_journal(job.name, tail,
                                                 meta=job.meta)
                    path = job.store.compact_journal(
                        job.name, merge_store=job.resume)
                if path is not None:
                    job.store_path = str(path)
        except Exception as error:
            with self._lock:
                job.failure = (f"compacting the partial store of cancelled "
                               f"sweep {job.name!r} failed: {error}")
                self._fail_locked(job)
            return
        with self._lock:
            job.status = JOB_CANCELLED
            job.done.set()
        if job.reporter is not None:
            job.reporter.update(job.done_cells, extra="cancelled",
                                force=True)

    # ------------------------------------------------------------------ #
    # Introspection / metrics / progress
    # ------------------------------------------------------------------ #
    def metrics_snapshot(self) -> Dict:
        """The JSON payload served for a ``metrics`` protocol request.

        Top-level fields aggregate over every hosted sweep (so existing
        dashboards on queue depth / throughput / ETA keep working), and the
        ``sweeps`` object carries the same numbers per tenant —
        :func:`repro.telemetry.render_prometheus` renders those with a
        ``sweep`` label on every sample.
        """
        now = time.monotonic()
        with self._lock:
            total = sum(len(job.cells) for job in self._jobs.values())
            done = sum(job.done_cells for job in self._jobs.values())
            pending = sum(len(job.pending) for job in self._jobs.values())
            leased = sum(len(l.keys) for l in self._leases.values())
            throughput = self._overall_rate.rate
            remaining = sum(len(job.pending) + job.leased_cells
                            for job in self._jobs.values()
                            if not job.terminal)
            if remaining <= 0:
                eta: Optional[float] = 0.0
            elif throughput:
                eta = remaining / throughput
            else:
                eta = None
            snapshot: Dict = {
                "total": total,
                "done": done,
                "pending": pending,
                "leased": leased,
                "leases": len(self._leases),
                "sweeps_hosted": len(self._jobs),
                "workers": self._connected,
                "workers_seen": self._workers_seen,
                "requeued_batches": sum(job.requeued
                                        for job in self._jobs.values()),
                "reaped_leases": self._reaped,
                "duplicate_records": sum(job.duplicates
                                         for job in self._jobs.values()),
                "throughput": throughput,
                "eta_seconds": eta,
                "worker_cells": dict(self._active_workers),
                "worker_throughput": {
                    name: rate.rate
                    for name, rate in self._worker_rates.items()
                    if rate.rate is not None},
                "heartbeat_age_seconds": {
                    name: now - at
                    for name, at in self._heartbeat_at.items()},
                "lease_latency_seconds": {},
                "sweeps": {name: job.snapshot(now)
                           for name, job in sorted(self._jobs.items())},
            }
            latencies = list(self._lease_latencies)
        p50 = percentile(latencies, 0.5)
        if p50 is not None:
            snapshot["lease_latency_seconds"] = {
                "0.5": p50, "0.95": percentile(latencies, 0.95)}
        hub = get_telemetry()
        if hub.enabled:
            hub.set_gauge("service.queue_depth", snapshot["pending"])
            hub.set_gauge("service.outstanding_leases", snapshot["leases"])
            hub.set_gauge("service.workers_connected", snapshot["workers"])
        return snapshot

    def job_stats(self, name: str) -> Dict:
        """Point-in-time counters of one sweep (tests, monitoring)."""
        with self._lock:
            job = self._jobs.get(name)
            if job is None:
                raise ServiceError(f"no sweep named {name!r}")
            return {
                "total": len(job.cells),
                "done": job.done_cells,
                "computed": len(job.completed),
                "skipped": len(job.stored),
                "pending": len(job.pending),
                "leased": job.leased_cells,
                "leases": sum(1 for lease in self._leases.values()
                              if lease.sweep == name),
                "workers": self._connected,
                "workers_seen": self._workers_seen,
                "requeued_batches": job.requeued,
                "duplicate_records": job.duplicates,
                "cells_by_worker": dict(job.cells_by_worker),
                "status": job.status,
                "failure": job.failure,
            }

    def _emit_progress(self, job: Optional[SweepJob] = None) -> None:
        hub = get_telemetry()
        if hub.enabled:
            with self._lock:
                hub.set_gauge("service.queue_depth",
                              sum(len(j.pending)
                                  for j in self._jobs.values()))
                hub.set_gauge("service.outstanding_leases",
                              len(self._leases))
                hub.set_gauge("service.workers_connected", self._connected)
        jobs = [job] if job is not None else list(self._jobs.values())
        for one in jobs:
            if one.reporter is None or one.done.is_set():
                continue  # the final line is emitted once, at finalization
            with self._lock:
                done = one.done_cells
                extra = (f"{self._connected} workers, "
                         f"{one.leased_cells} leased, "
                         f"{one.requeued} requeued")
            one.reporter.update(done, extra=extra)
