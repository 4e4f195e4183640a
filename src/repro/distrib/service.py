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
  queue, lease counters and throughput EWMA, and its own
  :class:`~repro.explore.sweep.SweepLedger` — the records, journal tail and
  store writes ``execute_sweep`` uses in process — so tenants cannot
  observe each other through shared counters or shared store files.  The
  service schedules and locks; the ledger decides what is written.
* **Priority scheduling.**  Leases are handed out by weighted fair share:
  each admitting job is scored ``priority / (leased_cells + 1)`` and the
  highest score wins (ties break to higher priority, then submission
  order).  A priority-3 sweep therefore holds ~3x the outstanding cells of
  a priority-1 sweep on the same fleet, and the shares rebalance instantly
  when sweeps are submitted or cancelled mid-run (see
  :func:`schedule_score`).
* **Affinity leases.**  A sweep's pending cells queue per *group* — one
  benchmark's cells across every level, so level twins meet in one
  worker's engine memos.  A worker holds at most one group per sweep (the
  group of its latest lease) and is leased more of it while it lasts,
  then the first group in sweep order no other live worker holds, and
  only when every pending group is held, cells from the back end of the
  fullest group (the *tail split*, counted as ``split_groups``).  An
  expired or disconnected lease forfeits its worker's hold.  This is
  affinity scheduling (Markatos & LeBlanc, IEEE TPDS 5(4), 1994).
* **Adaptive lease tails.**  Every lease takes
  ``adaptive_batch(remaining, fleet, max_batch)`` cells, which equals
  ``max_batch`` while the queue is deep and shrinks toward 1 as the
  remaining-work/fleet ratio drops — the hp-adaptive-FEM rebalancing
  insight that a draining queue must be spread thin so no straggler holds
  the tail (``tests/test_distrib.py`` pins the win over the sleep-only
  bound of fixed cuts).
* **Cancellation.**  ``cancel()`` stops leasing a sweep immediately;
  in-flight leases drain (their results are still accepted and journaled),
  then the ledger writes what was completed as a well-formed keyed partial
  store (and removes the journal, if any) — mergeable and resumable like
  any shard.
* **The invariant.**  Per sweep, nothing changed: every completed sweep's
  store is **byte-identical** to a monolithic ``execute_sweep`` of the same
  spec, no matter how many tenants shared the fleet, how leases were
  interleaved, re-leased or duplicated, or which workers were SIGKILLed,
  because both write through the same ledger (CI submits two concurrent
  sweeps, cancels a third, kills a worker, and ``cmp``s every completed
  store against its monolithic reference).

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
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.distrib.progress import ProgressReporter
from repro.distrib.protocol import (
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
)
from repro.engine.results import ResultStore
from repro.explore.sweep import SweepLedger, SweepRecheckError, SweepSpec
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
    """Per-tenant scheduling state of one named sweep hosted by the service.

    Its records, store and journal live in its :class:`SweepLedger`.  One
    copy per tenant; the service's lock guards all of it, ledger included.
    """

    name: str
    ledger: SweepLedger
    priority: int
    order: int
    max_batch: int
    #: Pending cell keys per group (benchmark), groups and keys in sweep
    #: order; a group stays listed when it empties, so requeued keys keep
    #: their group's place.
    groups: Dict[str, Deque[str]] = field(default_factory=dict, init=False)
    #: Live worker -> (group of its latest lease, cut from the back end).
    holds: Dict[str, Tuple[str, bool]] = field(default_factory=dict)
    #: Group -> every worker ever leased some of its cells.
    leased_to: Dict[str, Set[str]] = field(default_factory=dict)
    status: str = JOB_RUNNING
    failure: Optional[str] = None
    requeued: int = 0
    duplicates: int = 0
    dropped_after_terminal: int = 0
    leased_cells: int = 0
    cells_by_worker: Dict[str, int] = field(default_factory=dict)
    rate: RateEwma = field(default_factory=RateEwma)
    done: "threading.Event" = field(default_factory=threading.Event)
    reporter: Optional[ProgressReporter] = None

    def __post_init__(self) -> None:
        for cell in self.ledger.missing():
            self.groups.setdefault(cell.spec.benchmark, deque()).append(
                cell.key)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def pending(self) -> int:
        """Cells queued for leasing, over every group."""
        return sum(len(keys) for keys in self.groups.values())

    @property
    def split_groups(self) -> int:
        """Groups leased to more than one worker: the locality the tail
        split gave up for balance."""
        return sum(1 for workers in self.leased_to.values()
                   if len(workers) > 1)

    def drop_pending(self) -> None:
        for keys in self.groups.values():
            keys.clear()

    def requeue(self, keys: List[str]) -> None:
        """Return a lease's unfinished *keys* to the front of their group
        (a running sweep only; a cancelling one drains instead)."""
        if self.status != JOB_RUNNING:
            return
        unfinished = [key for key in keys if not self.ledger.holds(key)]
        for key in reversed(unfinished):
            self.groups[self.ledger.by_key[key].spec.benchmark].appendleft(key)
        if unfinished:
            self.requeued += 1

    def _pick_group(self, worker: str) -> Optional[Tuple[str, bool]]:
        """The group, and the end of it, *worker*'s next lease comes from.

        The group it holds while that has pending cells; else the first
        group in sweep order that no other worker holds; else the back end
        of the group with the most pending cells (the tail split).
        """
        held = self.holds.get(worker)
        if held is not None and self.groups[held[0]]:
            return held
        taken = {group for other, (group, _back) in self.holds.items()
                 if other != worker}
        for group, keys in self.groups.items():
            if keys and group not in taken:
                return group, False
        fullest = max(self.groups, key=lambda group: len(self.groups[group]),
                      default=None)
        if fullest is None or not self.groups[fullest]:
            return None
        return fullest, True

    def take(self, worker: str, cut: int) -> List[str]:
        """Up to *cut* pending keys of one group for *worker*, in sweep
        order, which it then holds.  Keys whose records are already held
        are dropped on the way (a late result can beat the re-lease of an
        expired lease, and re-simulating its cell is waste)."""
        while True:
            pick = self._pick_group(worker)
            if pick is None:
                return []
            group, back = pick
            queue = self.groups[group]
            keys: List[str] = []
            while queue and len(keys) < cut:
                key = queue.pop() if back else queue.popleft()
                if not self.ledger.holds(key):
                    keys.append(key)
            if keys:
                self.holds[worker] = pick
                self.leased_to.setdefault(group, set()).add(worker)
                return keys[::-1] if back else keys

    def snapshot(self, now: float) -> Dict:
        """Point-in-time per-sweep stats (status verb, metrics, progress)."""
        throughput = self.rate.rate
        remaining = self.pending + self.leased_cells
        if self.status == JOB_COMPLETED or remaining <= 0:
            eta: Optional[float] = 0.0
        elif throughput:
            eta = remaining / throughput
        else:
            eta = None
        return {
            "status": self.status,
            "priority": self.priority,
            "total": len(self.ledger.cells),
            "done": self.ledger.done,
            "computed": len(self.ledger.completed),
            "skipped": len(self.ledger.stored),
            "pending": self.pending,
            "leased": self.leased_cells,
            "requeued_batches": self.requeued,
            "duplicate_records": self.duplicates,
            "split_groups": self.split_groups,
            "cells_by_worker": dict(self.cells_by_worker),
            "throughput": throughput,
            "eta_seconds": eta,
            "failure": self.failure,
            "store_path": self.ledger.path,
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
        #: hand-out or heartbeat processing for the rest of the fleet.  A
        #: sweep's one final write holds both locks.
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
            # shutdown() wakes an accept() already blocked on the listener
            # at once; close() alone would leave it to its next poll.
            for action in (lambda: self._listener.shutdown(socket.SHUT_RDWR),
                           self._listener.close):
                try:
                    action()
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
        with self._lock:
            if name in self._jobs:
                raise ServiceError(
                    f"sweep name {name!r} is already taken in this service "
                    f"(status {self._jobs[name].status}); pick another name")
            # Admitted only after the name check: a rejected duplicate
            # submit (e.g. a wire client retrying after a lost reply) must
            # never fold or discard the live sweep's journal checkpoints.
            try:
                ledger = SweepLedger(
                    sweep, store if store is not None else self.store, name,
                    shard=shard, resume=resume,
                    checkpoint_every=(self.checkpoint_every
                                      if checkpoint_every is None
                                      else checkpoint_every))
            except ValueError as error:
                raise ServiceError(str(error)) from error
            job = SweepJob(
                name=name, ledger=ledger, priority=priority,
                order=self._job_order, max_batch=batch_size,
                # Anchor the throughput EWMA at admission so the very first
                # completed batch already yields a rate (and an ETA).
                rate=RateEwma(start=time.monotonic()),
            )
            self._job_order += 1
            if self.progress:
                job.reporter = ProgressReporter(len(ledger.cells),
                                                label=f"distrib:{name}")
            self._jobs[name] = job
        if not job.pending:
            # Everything already stored (a completed resume): finish now
            # so waiters and stores behave exactly like a computed run.
            self._finish(job, complete=True)
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
                job.drop_pending()
            finalize = job.leased_cells == 0
        if finalize:
            # No leases in flight: the job goes terminal before we return,
            # so the caller sees "cancelled", not a vacuous "cancelling".
            self._finish(job, complete=False)
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
            return dict(job.ledger.summary(), rechecked=0, status=job.status,
                        distrib={
                            "workers": self._workers_seen,
                            "requeued_batches": job.requeued,
                            "duplicate_records": job.duplicates,
                            "split_groups": job.split_groups,
                            "cells_by_worker": dict(job.cells_by_worker),
                        })

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
                self._finish(job, complete=False)
            self._emit_progress()

    def _requeue_locked(self, lease: Lease) -> Optional[SweepJob]:
        """Return a lease's unfinished keys to its sweep's queue; its worker
        forfeits its hold on the sweep.

        Returns the job if this was the last in-flight lease of a
        *cancelling* sweep — the caller must finalize it outside the lock.
        """
        self._leases.pop(lease.lease_id, None)
        job = self._jobs.get(lease.sweep)
        if job is None:
            return None
        job.leased_cells = max(0, job.leased_cells - len(lease.keys))
        job.requeue(lease.keys)
        job.holds.pop(lease.worker, None)
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
                    for job in self._jobs.values():
                        job.holds.pop(worker, None)
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
                self._finish(job, complete=False)
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
                "cells": len(job.ledger.cells), "pending": job.pending,
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
            keys = job.take(worker, adaptive_batch(
                job.pending, max(1, self._connected), job.max_batch))
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
                    "sweep": job.name, "keys": keys, "spec": job.ledger.meta}

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
                    if job is not None:
                        job.requeue(lease.keys)
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
                try:
                    if not job.ledger.accept(record):
                        job.duplicates += 1
                        continue
                except SweepRecheckError as error:
                    job.duplicates += 1
                    job.failure = f"worker {worker}: {error}"
                    self._fail_locked(job)
                    return
                except ValueError as error:
                    # Put the batch's unfinished cells back before dropping
                    # this connection: a bad result must not strand a lease.
                    if lease is not None:
                        job.requeue(lease.keys)
                    raise ProtocolError(f"result for {error}") from error
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
            batch = job.ledger.due_batch()
            if job.status == JOB_RUNNING and \
                    job.ledger.done >= len(job.ledger.cells):
                finished = True
            if job.status == JOB_CANCELLING and job.leased_cells == 0:
                cancel_drained = True
        if batch:
            try:
                with self._journal_lock:
                    job.ledger.journal(batch)
            except Exception as error:
                # The store directory took no checkpoint, so a crash now
                # would lose the batch, and the final write would most
                # likely fail the same way.  Fail the sweep loudly instead.
                with self._lock:
                    job.failure = (
                        f"journal checkpoint failed ({error}); aborting "
                        f"rather than run on without crash recovery")
                    self._fail_locked(job)
                finished = cancel_drained = False
        if finished:
            self._finish(job, complete=True)
        if cancel_drained:
            self._finish(job, complete=False)
        self._emit_progress(job)

    def _fail_locked(self, job: SweepJob) -> None:
        """Flip *job* to failed: stop leasing it, wake its waiters."""
        job.status = JOB_FAILED
        job.drop_pending()
        job.done.set()

    def _finish(self, job: SweepJob, complete: bool) -> None:
        """Write *job*'s store and mark it completed — or, for a cancelling
        sweep whose last lease has drained, its partial store and mark it
        cancelled.  The ledger chooses the write, exactly as in process.
        """
        with self._lock:
            if complete and job.status != JOB_RUNNING:
                return
            if not complete and (job.status != JOB_CANCELLING
                                 or job.leased_cells):
                return
            try:
                # Under the journal lock too, so the final write waits for
                # a checkpoint batch of this sweep already being written.
                with self._journal_lock:
                    job.ledger.finish(complete=complete, kind="final")
            except Exception as error:
                job.failure = (f"writing the store of sweep {job.name!r} "
                               f"failed: {error}")
                self._fail_locked(job)
                return
            job.status = JOB_COMPLETED if complete else JOB_CANCELLED
            job.done.set()
        if job.reporter is not None:
            job.reporter.update(job.ledger.done, force=True,
                                extra="complete" if complete else "cancelled")

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
            total = sum(len(job.ledger.cells) for job in self._jobs.values())
            done = sum(job.ledger.done for job in self._jobs.values())
            pending = sum(job.pending for job in self._jobs.values())
            leased = sum(len(l.keys) for l in self._leases.values())
            throughput = self._overall_rate.rate
            remaining = sum(job.pending + job.leased_cells
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

    def _emit_progress(self, job: Optional[SweepJob] = None) -> None:
        hub = get_telemetry()
        if hub.enabled:
            with self._lock:
                hub.set_gauge("service.queue_depth",
                              sum(j.pending for j in self._jobs.values()))
                hub.set_gauge("service.outstanding_leases",
                              len(self._leases))
                hub.set_gauge("service.workers_connected", self._connected)
        jobs = [job] if job is not None else list(self._jobs.values())
        for one in jobs:
            if one.reporter is None or one.done.is_set():
                continue  # the final line is emitted once, at finalization
            with self._lock:
                done = one.ledger.done
                extra = (f"{self._connected} workers, "
                         f"{one.leased_cells} leased, "
                         f"{one.requeued} requeued")
            one.reporter.update(done, extra=extra)
