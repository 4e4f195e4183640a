"""The process-local telemetry hub: nested spans and a counter registry.

One :class:`Telemetry` instance per process (:func:`get_telemetry`).  It is
a **no-op unless a sink directory is configured**: span context managers
yield immediately, counter updates return without taking the lock, and no
file is ever opened — so instrumented hot paths cost one attribute check
when telemetry is off.

With a sink configured the hub appends JSON-lines events to
``<sink>/<role>-<pid>.events.jsonl``:

* one ``meta`` line when the file opens (pid, role, wall/monotonic clocks);
* one ``span`` line per completed span — name, per-process ``id`` and
  ``parent`` id, monotonic ``start``/``end``/``dur``, nesting ``depth``,
  and optional ``attrs`` (the engine stamps cell knobs here);
* ``counters`` lines on :meth:`Telemetry.flush` (also registered via
  ``atexit``) carrying the cumulative counter/gauge registry.

Appends are atomic per line: the file is opened in append mode with line
buffering, so each event is one ``write`` to an ``O_APPEND`` descriptor and
concurrent processes (which write distinct files anyway) can never tear each
other's lines.  A process killed mid-write leaves at most one torn trailing
line, which the reducer (:mod:`repro.telemetry.stats`) skips.

Process model: the sink propagates to children through the
``REPRO_TELEMETRY_DIR`` environment variable (set by :meth:`configure`), so
both spawn-based fleet workers and fork-based pool workers inherit it.  A
forked child additionally inherits the parent's open file object; the hub
re-checks ``os.getpid()`` before every write and transparently reopens its
own pid-stamped file, so two processes never share a descriptor.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Environment variables through which a configured sink (and the role of
#: child processes) propagate to spawned/forked workers.
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"
TELEMETRY_ROLE_ENV = "REPRO_TELEMETRY_ROLE"


class Telemetry:
    """Spans, counters and gauges for one process; no-op without a sink.

    Use the process singleton from :func:`get_telemetry` in library code;
    construct private instances only in tests and docs.  All methods are
    thread-safe; span nesting is tracked per thread.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.sink_dir: Optional[str] = None
        self.role = "main"
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._file = None
        self._file_pid: Optional[int] = None
        self._next_span_id = 0
        self._atexit_registered = False

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def configure(self, sink_dir: str, role: Optional[str] = None,
                  propagate: bool = True) -> "Telemetry":
        """Enable the hub, writing events under *sink_dir*; returns self.

        ``role`` stamps this process's event file name (``main``,
        ``service``, ``worker``, …).  ``propagate=True`` (default)
        exports the sink through :data:`TELEMETRY_DIR_ENV` so child
        processes — the engine's pool workers and spawned fleet workers —
        pick it up automatically (their role defaults to ``worker``).
        """
        sink_dir = os.fspath(sink_dir)
        os.makedirs(sink_dir, exist_ok=True)
        with self._lock:
            self._close_file_locked()
            self.sink_dir = sink_dir
            if role is not None:
                self.role = role
            self.enabled = True
            if not self._atexit_registered:
                atexit.register(self.flush)
                self._atexit_registered = True
        if propagate:
            os.environ[TELEMETRY_DIR_ENV] = sink_dir
        return self

    def reset(self, clear_env: bool = False) -> None:
        """Disable the hub and drop all state (tests and fresh runs)."""
        with self._lock:
            self.flush_locked()
            self._close_file_locked()
            self.enabled = False
            self.sink_dir = None
            self.counters = {}
            self.gauges = {}
            self._next_span_id = 0
        if clear_env:
            os.environ.pop(TELEMETRY_DIR_ENV, None)
            os.environ.pop(TELEMETRY_ROLE_ENV, None)

    # ------------------------------------------------------------------ #
    # Event sink
    # ------------------------------------------------------------------ #
    def _close_file_locked(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
            self._file_pid = None

    def _ensure_file_locked(self):
        pid = os.getpid()
        if self._file is None or self._file_pid != pid:
            # First write in this process — or the first write after a fork
            # handed us the parent's descriptor: open our own file.
            self._file = None
            path = os.path.join(self.sink_dir,
                                f"{self.role}-{pid}.events.jsonl")
            self._file = open(path, "a", buffering=1, encoding="utf-8")
            self._file_pid = pid
            self._file.write(_encode({
                "event": "meta", "pid": pid, "role": self.role,
                "wall_time": time.time(), "monotonic": time.monotonic(),
            }))
        return self._file

    def _emit(self, payload: Dict) -> None:
        with self._lock:
            try:
                self._ensure_file_locked().write(_encode(payload))
            except OSError:
                # A full or revoked sink degrades telemetry, never the run.
                self._close_file_locked()

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[int]]:
        """Context manager timing one nested phase on the monotonic clock.

        Yields the span's per-process id (``None`` when disabled).  The
        event is emitted when the span *ends*; nesting (``parent``,
        ``depth``) is tracked per thread, so concurrent service threads
        cannot corrupt each other's stacks.
        """
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield span_id
        finally:
            end = time.monotonic()
            stack.pop()
            event = {
                "event": "span", "name": name, "id": span_id,
                "parent": parent, "depth": len(stack),
                "start": start, "end": end, "dur": end - start,
                "pid": os.getpid(), "role": self.role,
            }
            if attrs:
                event["attrs"] = attrs
            self._emit(event)

    # ------------------------------------------------------------------ #
    # Counters and gauges
    # ------------------------------------------------------------------ #
    def add(self, name: str, value: int = 1) -> None:
        """Increment cumulative counter *name* (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set point-in-time gauge *name* (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = value

    def snapshot(self) -> Dict[str, Dict]:
        """A copy of the current counter/gauge registry."""
        with self._lock:
            return {"counters": dict(self.counters),
                    "gauges": dict(self.gauges)}

    def flush_locked(self) -> None:
        if not self.enabled or (not self.counters and not self.gauges):
            return
        try:
            self._ensure_file_locked().write(_encode({
                "event": "counters", "pid": os.getpid(), "role": self.role,
                "monotonic": time.monotonic(),
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
            }))
        except OSError:
            self._close_file_locked()

    def flush(self) -> None:
        """Emit the cumulative counter registry as a ``counters`` event.

        Registered via ``atexit`` at configure time; long-running callers
        (sweeps, workers) also flush at natural milestones so a later
        SIGKILL loses at most the tail.
        """
        with self._lock:
            self.flush_locked()


def _encode(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# --------------------------------------------------------------------------- #
# Process singleton
# --------------------------------------------------------------------------- #
_HUB: Optional[Telemetry] = None
_HUB_LOCK = threading.Lock()


def get_telemetry() -> Telemetry:
    """The process-wide hub; auto-configures from the environment.

    The first call in a process checks :data:`TELEMETRY_DIR_ENV` — that is
    how spawned pool/fleet worker processes inherit the parent's
    ``--telemetry`` sink without any argument plumbing.  Without the
    variable the hub stays a no-op.
    """
    global _HUB
    if _HUB is None:
        with _HUB_LOCK:
            if _HUB is None:
                hub = Telemetry()
                sink = os.environ.get(TELEMETRY_DIR_ENV)
                if sink:
                    hub.configure(
                        sink, role=os.environ.get(TELEMETRY_ROLE_ENV,
                                                  "worker"),
                        propagate=False)
                _HUB = hub
    return _HUB


def configure_telemetry(sink_dir: str, role: str = "main") -> Telemetry:
    """Configure the process singleton (the ``--telemetry DIR`` entry path)."""
    return get_telemetry().configure(sink_dir, role=role)


def reset_telemetry(clear_env: bool = True) -> None:
    """Disable and clear the process singleton (primarily for tests)."""
    global _HUB
    with _HUB_LOCK:
        if _HUB is not None:
            _HUB.reset(clear_env=clear_env)
        elif clear_env:
            os.environ.pop(TELEMETRY_DIR_ENV, None)
            os.environ.pop(TELEMETRY_ROLE_ENV, None)
