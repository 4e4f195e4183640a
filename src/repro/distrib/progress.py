"""Live progress/ETA reporting for long sweeps.

One :class:`ProgressReporter` instance serves both execution paths: the
plain ``execute_sweep(..., progress=True)`` loop and the sweep service
(which adds worker/lease counts via ``extra``).  Output goes to
stderr so stdout stays machine-readable; on a TTY the line redraws in
place, otherwise one line is printed per reporting interval (CI logs stay
readable instead of drowning in carriage returns).

The displayed rate — and the ETA derived from it — is an EWMA of *recent*
completions (:class:`~repro.telemetry.RateEwma`), not the overall average:
after a compile-heavy warm-up the overall average understates steady-state
throughput for the rest of the run, which made long-sweep ETAs wildly
pessimistic.  The same estimator drives the service's per-worker
throughput gauges, so the progress line and ``repro-eval metrics`` agree.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO

from repro.telemetry import RateEwma


def format_eta(seconds: float) -> str:
    """Compact ``1h02m`` / ``4m07s`` / ``12s`` rendering of a duration."""
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressReporter:
    """Throttled ``done/total, cells/s, ETA`` line on stderr.

    The reporter is passive bookkeeping only — it never touches results and
    is safe to drop entirely (every caller treats it as optional).
    """

    def __init__(self, total: int, label: str = "sweep",
                 stream: Optional[TextIO] = None, interval: float = 1.0,
                 clock: Callable[[], float] = time.monotonic):
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.clock = clock
        self.started = clock()
        self.done = 0
        self._last_emit = float("-inf")
        self._last_line = ""
        #: Seeded with the start time so the very first completion interval
        #: already yields a rate (there is no "previous" observation to wait
        #: for — the reporter's creation is the origin).
        self._rate = RateEwma(start=self.started)

    @property
    def rate(self) -> float:
        """Smoothed recent cells/second (overall average until a sample)."""
        smoothed = self._rate.rate
        if smoothed is not None:
            return smoothed
        elapsed = max(self.clock() - self.started, 1e-9)
        return self.done / elapsed

    def line(self, extra: str = "") -> str:
        rate = self.rate
        if self.done >= self.total:
            eta = "done"
        elif rate > 0:
            eta = "ETA " + format_eta((self.total - self.done) / rate)
        else:
            eta = "ETA --"
        percent = 100.0 * self.done / self.total if self.total else 100.0
        text = (f"[{self.label}] {self.done}/{self.total} cells "
                f"({percent:.1f}%), {rate:.2f} cells/s, {eta}")
        if extra:
            text += f", {extra}"
        return text

    def update(self, done: int, extra: str = "", force: bool = False) -> None:
        """Record progress and emit a line if the interval elapsed.

        Every call feeds the rate EWMA — including throttled ones that emit
        nothing — so the estimate tracks completions, not emissions.
        """
        delta = done - self.done
        self.done = done
        now = self.clock()
        if delta > 0:
            self._rate.observe(delta, now)
        if not force and done < self.total and now - self._last_emit < self.interval:
            return
        self._last_emit = now
        self._last_line = self.line(extra)
        if self.stream.isatty():
            end = "\n" if done >= self.total else ""
            self.stream.write("\r\x1b[2K" + self._last_line + end)
        else:
            self.stream.write(self._last_line + "\n")
        self.stream.flush()

    def finish(self, extra: str = "") -> None:
        self.update(self.done, extra=extra, force=True)
