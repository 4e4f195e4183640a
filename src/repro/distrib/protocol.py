"""JSON-lines wire protocol between the sweep service and its peers.

Every message is one JSON object on one ``\\n``-terminated line over a plain
TCP connection — trivially debuggable with ``nc`` and exactly as portable as
the result stores themselves (floats serialize via ``repr``/``json`` and
round-trip bitwise, so a record that crosses the wire is byte-for-byte the
record a local run would have produced).

Version 2.  A ``welcome`` carries no sweep: each ``lease`` names its sweep
and ships the axes meta, which is what makes workers sweep-agnostic, and
each ``result`` names its sweep back.  ``hello``/``welcome`` negotiate the
version: a mismatch is answered with a versioned ``error`` message (not a
decode crash), so a peer speaking any other version fails loudly and
legibly before it can lease or submit anything.

Message vocabulary (``type`` field); *w* = worker, *s* = service,
*c* = client (submitter/observer):

=============  =========  ==================================================
type           direction  payload
=============  =========  ==================================================
``hello``      w/c → s    ``version``, ``worker`` (display name),
                          ``role`` (``"worker"`` or ``"client"``; absent
                          means worker)
``welcome``    s → w/c    ``version``, ``heartbeat_interval``
``request``    w → s      ask for work (any sweep)
``lease``      s → w      ``lease_id``, ``sweep`` (name), ``keys`` (batch
                          of cell_keys), ``spec`` (axes meta — the worker
                          rebuilds the `SweepSpec` and indexes cells by key)
``wait``       s → w      ``seconds`` — nothing leasable right now, retry
``done``       s → w      nothing left to serve, disconnect
``result``     w → s      ``lease_id``, ``sweep``, ``records`` (one per
                          leased cell)
``heartbeat``  w → s      extends the worker's lease deadlines (no reply)
``submit``     c → s      ``sweep`` (axes meta), ``name``, ``priority``,
                          optional ``batch_size`` (lease-size ceiling)/
                          ``checkpoint_every``/``resume``/``store``
                          (directory on the service host); replied with
                          ``submitted`` carrying the admission counts
``status``     any → s    optional ``sweep`` — replied with a ``status``
                          message carrying per-sweep ``snapshot``\\ s
                          (counts, EWMA throughput, ETA)
``cancel``     c → s      ``sweep`` — replied with ``cancelled`` + snapshot
``list``       any → s    replied with ``sweeps`` (name → status)
``metrics``    any → s    observer request (no ``hello`` needed); replied
                          with a ``metrics`` message carrying ``snapshot``
                          (queue depth, throughput, lease latency — see
                          ``SweepService.metrics_snapshot``)
``error``      both       ``message``, ``version`` — fatal for this
                          connection only; other tenants are unaffected
=============  =========  ==================================================

The service only ever *replies* (one response per request-shaped message);
workers may interleave write-only ``heartbeat`` lines from a background
thread, so :class:`MessageStream` serializes writes with a lock.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Dict, Optional

#: Protocol version; hello/welcome must agree exactly.  2 = multi-sweep
#: service verbs (submit/status/cancel/list, per-lease sweep meta).
PROTOCOL_VERSION = 2

#: Maximum accepted line length (a result batch of a few hundred cells is
#: well under this; anything bigger is a framing error, not a message).
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed, unversioned, or out-of-vocabulary message."""


def encode_message(message: Dict) -> bytes:
    """One compact JSON line (sorted keys, so encodings are canonical)."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_message(line: str) -> Dict:
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"undecodable message line: {error}") from error
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError(f"message must be an object with a string "
                            f"'type' field, got {line[:200]!r}")
    return message


class MessageStream:
    """A line-framed JSON message channel over one TCP socket.

    Reads happen from a single thread per peer; writes may come from
    several (a worker's main loop plus its heartbeat thread), so ``send``
    holds a lock around the whole ``sendall``.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._write_lock = threading.Lock()

    def send(self, message: Dict) -> None:
        data = encode_message(message)
        with self._write_lock:
            self._sock.sendall(data)

    def recv(self) -> Optional[Dict]:
        """The next message, or ``None`` on a cleanly closed connection."""
        line = self._reader.readline(MAX_LINE_BYTES)
        if not line:
            return None
        if not line.endswith(b"\n"):
            raise ProtocolError("truncated or oversized message line")
        return decode_message(line.decode("utf-8"))

    def interrupt(self) -> None:
        """Unblock a peer thread parked in :meth:`recv`.

        Safe to call from *any* thread: it only shuts the socket down
        (``recv`` then sees EOF and returns ``None``), leaving the actual
        close to the thread that owns the stream.  Closing the buffered
        reader from a foreign thread would instead deadlock on the buffer
        lock the blocked read holds.
        """
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        """Full close — call from the thread that does the ``recv`` calls."""
        self.interrupt()
        for action in (self._reader.close, self._sock.close):
            try:
                action()
            except (OSError, ValueError):
                pass

    # Context-manager sugar for tests and ad-hoc clients.
    def __enter__(self) -> "MessageStream":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def connect(host: str, port: int, timeout: float = 10.0) -> MessageStream:
    """Open a message stream to ``host:port`` (one connection attempt)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return MessageStream(sock)
