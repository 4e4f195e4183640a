"""Thin wire client for the sweep service's control verbs.

`repro-eval submit/status/cancel` land here: one short-lived TCP
connection per operation, speaking the version-2 control vocabulary
(`repro.distrib.protocol`).  Every helper opens a stream, performs the
hello/welcome version negotiation where the verb requires it, sends one
request, decodes one reply, and closes — there is no long-lived client
state, which is what lets ad-hoc shells, CI jobs and dashboards all poke
the same service without coordination.

All helpers raise :class:`ClientError` with the service's own message when
the reply is a protocol ``error`` — including the loud version-mismatch
message an old client gets from a new service.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.distrib.protocol import (
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
    connect,
)
from repro.explore.sweep import SweepSpec


class ClientError(RuntimeError):
    """The service rejected a control request (or could not be reached)."""


def _roundtrip(host: str, port: int, message: Dict, expected: str,
               negotiate: bool = False) -> Dict:
    """One connect → (hello) → request → reply cycle, errors normalized."""
    try:
        with connect(host, port) as stream:
            if negotiate:
                _negotiate(stream)
            stream.send(message)
            return _checked(stream.recv(), expected)
    except (OSError, ProtocolError) as error:
        raise ClientError(
            f"could not complete a {message['type']!r} request against "
            f"{host}:{port}: {error}") from error


def _checked(reply: Optional[Dict], expected: str) -> Dict:
    if reply is None:
        raise ClientError("service closed the connection mid-request")
    if reply.get("type") == "error":
        raise ClientError(f"service error: {reply.get('message')}")
    if reply.get("type") != expected:
        raise ClientError(f"expected a {expected!r} reply, got {reply!r}")
    return reply


def _negotiate(stream: MessageStream, client: str = "client") -> None:
    """hello/welcome as a non-worker peer; raises on version mismatch."""
    stream.send({"type": "hello", "version": PROTOCOL_VERSION,
                 "worker": client, "role": "client"})
    _checked(stream.recv(), "welcome")


def submit_sweep(host: str, port: int, sweep: SweepSpec, name: str,
                 priority: int = 1,
                 batch_size: Optional[int] = None,
                 resume: bool = False,
                 checkpoint_every: Optional[int] = None,
                 store: Optional[str] = None) -> Dict:
    """Submit *sweep* to a running service under *name*; admission stats.

    The sweep travels as its axes meta (``SweepSpec.meta()``) — the same
    payload leases carry to workers — so the service rebuilds an identical
    cell set and the eventual store stays byte-identical to a local
    ``execute_sweep`` of the same spec.  ``store`` is a directory path *on
    the service host* where this sweep's store and journal land (defaults
    to the service-wide store root); ``checkpoint_every`` overrides the
    service's journal cadence for this sweep.
    """
    message: Dict = {"type": "submit", "sweep": sweep.meta(), "name": name,
                     "priority": priority, "resume": resume}
    if batch_size is not None:
        message["batch_size"] = batch_size
    if checkpoint_every is not None:
        message["checkpoint_every"] = checkpoint_every
    if store is not None:
        message["store"] = store
    return _roundtrip(host, port, message, "submitted", negotiate=True)


def sweep_status(host: str, port: int,
                 name: Optional[str] = None) -> Dict:
    """Per-sweep snapshots (counts, EWMA throughput, ETA) from the service.

    Returns ``{sweep_name: snapshot}``; *name* narrows it to one sweep.
    No hello needed — status is an observer verb, like ``metrics``.
    """
    message = ({"type": "status"} if name is None
               else {"type": "status", "sweep": name})
    return _roundtrip(host, port, message, "status")["sweeps"]


def cancel_sweep(host: str, port: int, name: str) -> Dict:
    """Cancel sweep *name*; returns its snapshot at cancellation."""
    return _roundtrip(host, port, {"type": "cancel", "sweep": name},
                      "cancelled", negotiate=True)["snapshot"]


def list_sweeps(host: str, port: int) -> List[Dict]:
    """Every hosted sweep's snapshot (each dict carries its ``name``)."""
    return _roundtrip(host, port, {"type": "list"}, "sweeps")["sweeps"]


def wait_for_sweep(host: str, port: int, name: str,
                   timeout: Optional[float] = None,
                   poll: float = 0.5) -> Dict:
    """Poll ``status`` until sweep *name* reaches a terminal state.

    Returns the terminal snapshot; raises :class:`ClientError` on timeout
    or if the sweep ends ``failed`` (with the service's failure message).
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        try:
            snapshot = sweep_status(host, port, name)[name]
        except ClientError as error:
            raise ClientError(
                f"lost the service while waiting for sweep {name!r}: "
                f"{error}") from error
        if snapshot["status"] in ("completed", "cancelled", "failed"):
            if snapshot["status"] == "failed":
                raise ClientError(
                    f"sweep {name!r} failed: {snapshot.get('failure')}")
            return snapshot
        if deadline is not None and time.monotonic() >= deadline:
            raise ClientError(
                f"sweep {name!r} still {snapshot['status']} after "
                f"{timeout} s ({snapshot['done']}/{snapshot['total']} cells)")
        time.sleep(poll)
