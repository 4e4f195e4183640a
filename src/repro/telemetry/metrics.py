"""Throughput estimators and the Prometheus-text metrics rendering.

:class:`Ewma` is a half-life-parameterized exponentially weighted moving
average over *irregularly spaced* samples: each update decays the previous
estimate by ``0.5 ** (dt / halflife)`` so a sample's influence depends on
how long ago it arrived, not on how many samples happened since.
:class:`RateEwma` layers event counting on top — feed it ``(count, now)``
observations and it maintains a smoothed events/second rate.  Both the
progress reporter's ETA (``repro.distrib.progress``) and the service's
per-worker throughput gauges use the same estimator, replacing the naive
overall-average rate that was wildly wrong after a compile-heavy warm-up.

:func:`render_prometheus` turns the sweep service's ``metrics`` protocol
snapshot into the Prometheus text exposition format (``# TYPE`` headers,
one ``name{labels} value`` sample per line) for ``repro-eval metrics`` —
the poll surface an external autoscaler needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class Ewma:
    """Half-life EWMA over irregularly spaced samples.

    ``halflife`` is in the same units as the ``dt`` passed to
    :meth:`update`: after one half-life without newer data an old sample
    contributes half its original weight.  The first sample initializes the
    estimate directly.
    """

    def __init__(self, halflife: float = 15.0):
        if halflife <= 0:
            raise ValueError("halflife must be positive")
        self.halflife = halflife
        self._value: Optional[float] = None

    @property
    def value(self) -> Optional[float]:
        """The current estimate, or ``None`` before any sample."""
        return self._value

    def update(self, sample: float, dt: float) -> float:
        """Fold in *sample* observed *dt* units after the previous one."""
        if self._value is None or dt >= float("inf"):
            self._value = float(sample)
        else:
            decay = 0.5 ** (max(dt, 0.0) / self.halflife)
            self._value = decay * self._value + (1.0 - decay) * float(sample)
        return self._value


class RateEwma:
    """Smoothed events/second from ``observe(count, now)`` samples.

    The first observation only sets the time origin; each later one turns
    the increment into an instantaneous rate (``count / dt``) and folds it
    into an :class:`Ewma`.  ``now`` comes from the caller's clock (tests
    inject fake clocks; production uses ``time.monotonic()``).
    """

    def __init__(self, halflife: float = 15.0,
                 start: Optional[float] = None):
        self._ewma = Ewma(halflife=halflife)
        self._last: Optional[float] = start

    @property
    def rate(self) -> Optional[float]:
        """Smoothed events/second, or ``None`` before two observations."""
        return self._ewma.value

    def observe(self, count: float, now: float) -> Optional[float]:
        """Record *count* events completed by time *now*."""
        if self._last is None:
            self._last = now
            if count:
                # Events before the first observation have no measurable
                # interval; ignore them rather than invent a rate.
                pass
            return self._ewma.value
        dt = now - self._last
        if dt <= 0:
            return self._ewma.value
        self._last = now
        return self._ewma.update(count / dt, dt)


def percentile(samples: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of *samples* (``None`` when empty)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def _sample(lines: List[str], name: str, value, labels: str = "",
            kind: str = "gauge", typed: Optional[set] = None) -> None:
    if value is None:
        return
    if typed is not None and name not in typed:
        typed.add(name)
        lines.append(f"# TYPE {name} {kind}")
    if isinstance(value, bool):
        value = int(value)
    lines.append(f"{name}{labels} {value}")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus(snapshot: Dict, prefix: str = "repro") -> str:
    """Prometheus text exposition of a service ``metrics`` snapshot.

    The snapshot is the JSON payload the sweep service returns for a
    ``metrics`` protocol request (:meth:`SweepService.metrics_snapshot`):
    queue depth, lease/worker counts, per-worker throughput EWMAs, lease
    latency quantiles, heartbeat ages and the ETA — aggregated over every
    hosted sweep at the top level, and repeated per tenant under the
    snapshot's ``sweeps`` object, which renders as ``<prefix>_sweep_*``
    samples carrying a ``sweep`` label (plus a ``priority`` gauge and a
    ``status`` info-style gauge), so one scrape graphs each tenant's
    queue depth, throughput and ETA separately.  Unknown or ``None``
    fields are simply omitted, so old services and new CLIs coexist.
    """
    lines: List[str] = []
    typed: set = set()

    def emit(name, value, labels="", kind="gauge"):
        _sample(lines, f"{prefix}_{name}", value, labels, kind, typed)

    emit("cells_total", snapshot.get("total"))
    emit("cells_done", snapshot.get("done"), kind="counter")
    emit("queue_depth", snapshot.get("pending"))
    emit("cells_leased", snapshot.get("leased"))
    emit("outstanding_leases", snapshot.get("leases"))
    emit("workers_connected", snapshot.get("workers"))
    emit("workers_seen", snapshot.get("workers_seen"), kind="counter")
    emit("requeued_batches", snapshot.get("requeued_batches"),
         kind="counter")
    emit("lease_expiry_reaps", snapshot.get("reaped_leases"), kind="counter")
    emit("duplicate_records", snapshot.get("duplicate_records"),
         kind="counter")
    emit("throughput_cells_per_second", snapshot.get("throughput"))
    emit("eta_seconds", snapshot.get("eta_seconds"))
    for worker in sorted(snapshot.get("worker_throughput") or {}):
        rate = snapshot["worker_throughput"][worker]
        emit("worker_throughput_cells_per_second", rate,
             labels=f'{{worker="{_escape_label(worker)}"}}')
    for worker in sorted(snapshot.get("worker_cells") or {}):
        emit("worker_cells_completed", snapshot["worker_cells"][worker],
             labels=f'{{worker="{_escape_label(worker)}"}}', kind="counter")
    for worker in sorted(snapshot.get("heartbeat_age_seconds") or {}):
        emit("heartbeat_age_seconds",
             snapshot["heartbeat_age_seconds"][worker],
             labels=f'{{worker="{_escape_label(worker)}"}}')
    latency = snapshot.get("lease_latency_seconds") or {}
    for quantile in sorted(latency):
        emit("lease_latency_seconds", latency[quantile],
             labels=f'{{quantile="{_escape_label(quantile)}"}}')
    for sweep in sorted(snapshot.get("sweeps") or {}):
        per = snapshot["sweeps"][sweep]
        label = f'{{sweep="{_escape_label(sweep)}"}}'
        emit("sweep_cells_total", per.get("total"), labels=label)
        emit("sweep_cells_done", per.get("done"), labels=label,
             kind="counter")
        emit("sweep_queue_depth", per.get("pending"), labels=label)
        emit("sweep_cells_leased", per.get("leased"), labels=label)
        emit("sweep_priority", per.get("priority"), labels=label)
        emit("sweep_requeued_batches", per.get("requeued_batches"),
             labels=label, kind="counter")
        emit("sweep_duplicate_records", per.get("duplicate_records"),
             labels=label, kind="counter")
        emit("sweep_throughput_cells_per_second", per.get("throughput"),
             labels=label)
        emit("sweep_eta_seconds", per.get("eta_seconds"), labels=label)
        status = per.get("status")
        if status is not None:
            # Info-style: one sample per (sweep, status), value 1 for the
            # current state — the standard way to expose an enum.
            emit("sweep_status", 1,
                 labels=f'{{sweep="{_escape_label(sweep)}",'
                        f'status="{_escape_label(status)}"}}')
    return "\n".join(lines) + "\n" if lines else ""
