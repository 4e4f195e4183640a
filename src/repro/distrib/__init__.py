"""Distributed sweep execution: a multi-sweep service over TCP JSON lines.

Sweeps are shardable (``--shard i/N``), but a static partition is only as
fast as its slowest shard — one branch-and-bound-heavy slice of the design
space idles every other machine.  This subsystem replaces it with
**dynamic batch leasing** from one long-lived, multi-tenant service:

* :class:`SweepService` (`repro.distrib.service`) — one process serving
  many **named sweeps** concurrently: per-sweep queues, stores and journal
  checkpoints; integer **priorities** under weighted-fair lease scheduling
  (:func:`schedule_score`); **adaptive lease batching** that shrinks the
  cut as a sweep's remaining-queue/fleet ratio drops
  (:func:`adaptive_batch`); graceful **cancellation** (in-flight leases
  drain, journals compact, the partial store stays mergeable); heartbeats,
  re-leasing from dead or expired workers (at-least-once, duplicate
  completions validated bitwise), per-tenant failure isolation; with
  ``drain_when_idle=True`` it releases its workers once every sweep is
  terminal;
* :func:`run_worker` (`repro.distrib.worker`) — sweep-agnostic: one
  sequential engine per process, stateless between batches, executing
  whichever sweep each lease names; safe to kill at any instant;
* :func:`submit_sweep` / :func:`sweep_status` / :func:`cancel_sweep` /
  :func:`list_sweeps` / :func:`wait_for_sweep` (`repro.distrib.client`) —
  one-shot wire clients for the version-2 control verbs;
* :func:`execute_sweep_distributed` (`repro.distrib.local`) — a draining
  service plus N spawned local workers, the one-machine path behind
  ``execute_sweep(..., workers=N)``;
* `repro.distrib.protocol` / `repro.distrib.progress` — the JSON-lines
  wire format (version negotiated in hello/welcome) and the shared
  cells/s + ETA reporter.

The contract inherited from the whole engine/store stack: however cells are
leased, re-leased, duplicated or interleaved, and however many tenants
share the fleet, every sweep's final store is **byte-identical** to a
monolithic ``execute_sweep`` of the same spec.  ``repro-eval
serve/submit/work/status/cancel/metrics`` are the CLI faces.
"""

from repro.distrib.client import (
    ClientError,
    cancel_sweep,
    list_sweeps,
    submit_sweep,
    sweep_status,
    wait_for_sweep,
)
from repro.distrib.local import execute_sweep_distributed
from repro.distrib.progress import ProgressReporter, format_eta
from repro.distrib.protocol import (
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
    connect,
)
from repro.distrib.service import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_LEASE_TIMEOUT,
    Lease,
    ServiceError,
    SweepJob,
    SweepService,
    adaptive_batch,
    schedule_score,
)
from repro.distrib.worker import (
    WorkerError,
    connect_with_retry,
    run_worker,
    worker_process_entry,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_LEASE_TIMEOUT",
    "ClientError",
    "Lease",
    "ServiceError",
    "SweepJob",
    "SweepService",
    "adaptive_batch",
    "schedule_score",
    "cancel_sweep",
    "list_sweeps",
    "submit_sweep",
    "sweep_status",
    "wait_for_sweep",
    "execute_sweep_distributed",
    "ProgressReporter",
    "format_eta",
    "PROTOCOL_VERSION",
    "MessageStream",
    "ProtocolError",
    "connect",
    "WorkerError",
    "connect_with_retry",
    "run_worker",
    "worker_process_entry",
]
