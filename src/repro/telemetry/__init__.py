"""Out-of-band observability: spans, counters/gauges, and trace reduction.

The subsystem has three parts, none of which may perturb the science:

* :mod:`repro.telemetry.hub` — the process-local :class:`Telemetry` hub.
  It times nested phases (*spans*) on the monotonic clock, keeps a typed
  counter/gauge registry, and appends JSON-lines events to one
  pid/role-stamped file per process under a sink directory.  Unless a sink
  is configured (``--telemetry DIR`` or the ``REPRO_TELEMETRY_DIR``
  environment variable, which is how spawned pool/fleet processes inherit
  it), the hub is a **no-op singleton**: every span and counter call
  returns immediately and no file is ever touched.
* :mod:`repro.telemetry.metrics` — the :class:`Ewma`/:class:`RateEwma`
  estimators shared by the progress reporter and the sweep service's
  per-worker throughput gauges, plus the Prometheus-text rendering behind
  ``repro-eval metrics``.
* :mod:`repro.telemetry.stats` — the offline reducer behind
  ``repro-eval stats TRACEDIR``: it merges the per-process event files
  (tolerating the torn trailing line of a SIGKILLed process) into a
  per-phase wall-clock breakdown and a per-cell critical-path table.

Telemetry is strictly out-of-band: stores, cell records, journals and
report outputs are byte-identical with telemetry on or off (asserted by
``tests/test_telemetry.py`` and the CI ``distrib-smoke`` job).
"""

from repro.telemetry.hub import (
    Telemetry,
    configure_telemetry,
    get_telemetry,
    reset_telemetry,
)
from repro.telemetry.metrics import Ewma, RateEwma, render_prometheus
from repro.telemetry.stats import load_events, render_trace_stats, trace_stats

__all__ = [
    "Telemetry",
    "configure_telemetry",
    "get_telemetry",
    "reset_telemetry",
    "Ewma",
    "RateEwma",
    "render_prometheus",
    "load_events",
    "render_trace_stats",
    "trace_stats",
]
