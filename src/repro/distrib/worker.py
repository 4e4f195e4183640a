"""The sweep-agnostic worker: lease batches, execute them, stream records.

A worker is one process with one sequential engine and no sweep of its
own: the fleet is the parallelism.  It connects, negotiates the
protocol version in hello/welcome, and then loops request → execute →
result.  Each ``lease`` carries its sweep's name plus the sweep's axes
meta (``SweepSpec.meta()``), so one worker serves every tenant the service
hosts and rebalances automatically when sweeps are submitted or cancelled
mid-run: the worker rebuilds each sweep's cell set once per distinct axes
payload (content-addressed cache) and executes whatever batch the
scheduler hands it next.  Axes with an all-default value (e.g.
``timing_models == ("flat",)``) are omitted from the meta block and
restored to the default on rebuild, so the service and its workers agree
on every cell set byte-for-byte.

A background thread heartbeats while a batch is executing so the service
does not re-lease work from a slow-but-alive worker; a *dead* worker stops
heartbeating and drops its connection, which is exactly what triggers the
service's re-lease path.  Workers are deliberately stateless between
batches — all coordination state (leases, completions, checkpoints) lives
in the service, so a worker can be killed at any instant without
corrupting anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import sys
import threading
import time
from typing import Dict, Optional

from repro.distrib.protocol import (
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
    connect,
)
from repro.engine import ExperimentEngine
from repro.explore.sweep import SweepCell, SweepSpec, cell_record, run_sweep_cells
from repro.telemetry import get_telemetry


class WorkerError(RuntimeError):
    """The service rejected this worker or reported a fatal error."""


def connect_with_retry(host: str, port: int,
                       timeout: float = 30.0) -> MessageStream:
    """Connect to the service, retrying until *timeout* elapses.

    Workers routinely start before the service has bound its port (CI
    launches both as background jobs), so refusal is retried, not fatal.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            return connect(host, port)
        except OSError as error:
            if time.monotonic() >= deadline:
                raise WorkerError(
                    f"could not reach the sweep service at {host}:{port} "
                    f"within {timeout} s: {error}") from error
            time.sleep(0.2)


class _Heartbeat:
    """Background heartbeats on the worker's stream while batches execute."""

    def __init__(self, stream: MessageStream, interval: float):
        self._stream = stream
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="worker-heartbeat")
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._stream.send({"type": "heartbeat"})
            except OSError:
                return  # connection gone; the main loop will notice

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class _SweepCellCache:
    """Cell sets rebuilt from lease ``spec`` payloads, one per distinct axes.

    The cache key is a digest of the canonical JSON of the axes meta — not
    the sweep's display name — so a service that retires one sweep and
    later hosts a different sweep under a reused name can never hand this
    worker stale cells.
    """

    def __init__(self):
        self._by_digest: Dict[str, Dict[str, SweepCell]] = {}

    def cells_for(self, spec_meta: Dict) -> Dict[str, SweepCell]:
        digest = hashlib.sha256(json.dumps(
            spec_meta, sort_keys=True, separators=(",", ":"),
            default=str).encode("utf-8")).hexdigest()
        cells = self._by_digest.get(digest)
        if cells is None:
            sweep = SweepSpec.from_meta(spec_meta)
            cells = {cell.key: cell for cell in sweep.cells()}
            self._by_digest[digest] = cells
        return cells


def run_worker(host: str, port: int,
               name: Optional[str] = None,
               throttle: float = 0.0,
               connect_timeout: float = 30.0,
               cache_dir: Optional[str] = None) -> Dict:
    """Serve one sweep service until it releases this worker; return stats.

    The worker runs its cells one at a time in this process; scale out by
    starting more workers, not by widening one.  ``throttle`` injects an
    artificial delay of that many seconds per executed cell; it exists so
    tests, benchmarks and the CI smoke job can manufacture deterministic
    stragglers, and is harmless in production use.  ``cache_dir`` points the
    worker's engine at a persistent on-disk program cache, so a fleet
    sharing one directory compiles each program once per machine; the
    returned stats carry the engine's cache counters under ``"cache"`` and
    per-sweep cell counts under ``"sweeps"``.
    """
    worker_name = name or f"{socket.gethostname()}:{os.getpid()}"
    stream = connect_with_retry(host, port, timeout=connect_timeout)
    stats: Dict = {"worker": worker_name, "batches": 0, "cells": 0,
                   "waits": 0, "sweeps": {}}
    heartbeat: Optional[_Heartbeat] = None
    try:
        stream.send({"type": "hello", "version": PROTOCOL_VERSION,
                     "worker": worker_name, "role": "worker"})
        welcome = stream.recv()
        if welcome is None:
            raise WorkerError("service closed the connection during hello")
        if welcome.get("type") == "error":
            # A version-aware service rejects an incompatible hello with a
            # versioned error message; surface it verbatim instead of a
            # decode crash.
            raise WorkerError(
                f"service rejected this worker: {welcome.get('message')}")
        if welcome.get("type") != "welcome":
            raise WorkerError(f"expected welcome, got {welcome!r}")
        if welcome.get("version") != PROTOCOL_VERSION:
            raise WorkerError(
                f"protocol version mismatch: worker speaks "
                f"{PROTOCOL_VERSION}, service sent "
                f"{welcome.get('version')!r}; upgrade the older side")

        cell_cache = _SweepCellCache()
        engine = ExperimentEngine(max_workers=1, cache_dir=cache_dir)
        heartbeat = _Heartbeat(stream, float(welcome["heartbeat_interval"]))

        hub = get_telemetry()
        while True:
            try:
                # The roundtrip span covers queueing at the service plus
                # the wire time — the worker-side view of lease latency.
                with hub.span("lease.roundtrip", worker=worker_name):
                    stream.send({"type": "request"})
                    message = stream.recv()
            except OSError:
                break  # service gone mid-exchange; same as clean EOF
            if message is None:
                break  # service gone; nothing left to do safely
            kind = message["type"]
            if kind == "lease":
                try:
                    sweep_name = message["sweep"]
                    cells_by_key = cell_cache.cells_for(message["spec"])
                    batch = [cells_by_key[key] for key in message["keys"]]
                except (KeyError, ValueError) as error:
                    raise ProtocolError(
                        f"unusable lease for sweep {message.get('sweep')!r} "
                        f"({error}); service and worker disagree about "
                        f"the sweep") from error
                with hub.span("lease.execute", sweep=sweep_name,
                              cells=len(batch)):
                    runs = run_sweep_cells(batch, engine)
                    if throttle:
                        time.sleep(throttle * len(batch))
                records = [cell_record(cell, run)
                           for cell, run in zip(batch, runs)]
                try:
                    stream.send({"type": "result",
                                 "lease_id": message["lease_id"],
                                 "sweep": sweep_name,
                                 "records": records})
                except OSError:
                    # The sweep finished without this batch (it expired and
                    # was re-leased) and the service shut down — a
                    # legitimate at-least-once outcome, not a failure.
                    break
                stats["batches"] += 1
                stats["cells"] += len(records)
                stats["sweeps"][sweep_name] = \
                    stats["sweeps"].get(sweep_name, 0) + len(records)
                hub.add("worker.batches")
                hub.add("worker.cells", len(records))
                hub.flush()  # a SIGKILL now loses at most this batch's tail
            elif kind == "wait":
                stats["waits"] += 1
                time.sleep(float(message.get("seconds", 0.5)))
            elif kind == "done":
                break
            elif kind == "error":
                raise WorkerError(
                    f"service error: {message.get('message')}")
            else:
                raise ProtocolError(f"unknown message type {kind!r}")
        stats["cache"] = engine.merged_cache_stats()
    except ProtocolError as error:
        try:
            stream.send({"type": "error", "message": str(error)})
        except OSError:
            pass
        raise WorkerError(str(error)) from error
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        stream.close()
    return stats


def format_worker_stats(stats: Dict) -> str:
    """One greppable summary line for a finished worker.

    The CI smoke job asserts on the ``cache ... compiles=``/``disk_hits=``
    fields to prove that a warm shared ``--cache-dir`` eliminates
    recompiles, so keep the ``key=value`` shape stable.
    """
    line = (f"worker {stats['worker']} done: {stats['cells']} cells in "
            f"{stats['batches']} batches")
    sweeps = stats.get("sweeps")
    if sweeps and len(sweeps) > 1:
        detail = ", ".join(f"{name}={count}"
                           for name, count in sorted(sweeps.items()))
        line += f" across sweeps {detail}"
    cache = stats.get("cache")
    if cache is not None:
        line += (f" | cache compiles={cache['compiles']} "
                 f"hits={cache['hits']} disk_hits={cache['disk_hits']} "
                 f"disk_misses={cache['disk_misses']}")
    return line


def worker_process_entry(host: str, port: int, **kwargs) -> None:
    """Top-level entry point for spawned local worker processes."""
    stats = run_worker(host, port, **kwargs)
    print(format_worker_stats(stats), file=sys.stderr, flush=True)
