"""repro.obs — the unified observability layer.

One subsystem, five instruments, wired through every layer of the
runtime:

* :class:`MetricsRegistry` — named counters, gauges, and latency
  histograms (p50/p95/p99 accessors), cheap enough to stay always-on in
  the seal/unseal and per-frame hot paths. Every histogram records onto
  one process-wide log grid whose quantiles are within 2 % of the exact
  sample quantile, so any two histograms of a unit merge. Reactors own
  one, and every instrument in it has exactly one owner: the component
  that sees the event increments the counter right there, and per-session
  tallies kept as plain attributes are exported as read-through counters.
* :class:`SpanTracer` — ``with tracer.span("seal")`` context managers
  timed against the owning reactor's clock (simulated or wall), kept in a
  bounded ring and exportable as Chrome ``trace_event`` JSON or JSONL.
* :class:`KeystrokeLatencyTracker` — stamps each keystroke's UserStream
  index at ingestion and settles it when a frame's echo-ack covers it,
  so a live session emits the paper's Figure-2-style latency distribution
  without trace replay.
* :class:`FlightRecorder` — the wire-level flight recorder: one
  structured event per datagram at every lifecycle point (seal/send,
  receive/unseal, and terminal fates), in a bounded ring exportable as
  ``repro.obs.flight/1`` JSONL. Two endpoint recordings merge offline
  into a causal timeline via :mod:`repro.analysis.flight`.
* :class:`CausalTracer` — splits each settled keystroke's echo latency
  into seven pipeline stages, live on the client; the server-resident
  echo-ack wait (``{role}.causal.echo_wait_ms``) is read off the inputs
  the terminal's echo ack retires.

Each fact has one owner. The reactor names its clock domain (``sim`` or
``real``), and every recorder built on it reports that domain. Artifacts
come straight from the registry (``snapshot()``, written atomically by
:func:`~repro.obs.telemetry.write_snapshot_atomic`), the reactor's span
tracer (``export_chrome``) and the flight recorder (``export_jsonl``).

``snapshot()`` documents follow the :data:`SNAPSHOT_SCHEMA` layout and
are checked by :func:`validate_snapshot` (CI validates the artifact each
build). :func:`set_enabled` is the global kill switch the benchmark
suite uses to measure instrumentation overhead A/B.
"""

from repro.obs.causal import (
    CAUSAL_SCHEMA,
    STAGES,
    CausalTracer,
    pool_server_echo_wait,
    pool_stage_summaries,
    render_waterfall,
    validate_causal_report,
)
from repro.obs.clocksync import ClockOffsetEstimator, estimate_offset
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    load_flight_log,
    validate_flight_log,
)
from repro.obs.health import (
    HEALTH_SCHEMA,
    HealthMonitor,
    HealthRule,
    default_fleet_ruleset,
)
from repro.obs.keystroke import KeystrokeLatencyTracker
from repro.obs.registry import (
    DELTA_SCHEMA,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SnapshotDelta,
    apply_delta,
    enabled,
    merge_summaries,
    set_enabled,
    validate_snapshot,
)
from repro.obs.telemetry import (
    TelemetryServer,
    attach_metrics_writer,
    render_prometheus,
    write_snapshot_atomic,
)
from repro.obs.trace import SpanTracer

__all__ = [
    "CAUSAL_SCHEMA",
    "DELTA_SCHEMA",
    "FLIGHT_SCHEMA",
    "HEALTH_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "STAGES",
    "CausalTracer",
    "ClockOffsetEstimator",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "HealthMonitor",
    "HealthRule",
    "Histogram",
    "KeystrokeLatencyTracker",
    "MetricsRegistry",
    "SnapshotDelta",
    "SpanTracer",
    "TelemetryServer",
    "apply_delta",
    "attach_metrics_writer",
    "default_fleet_ruleset",
    "enabled",
    "estimate_offset",
    "load_flight_log",
    "merge_summaries",
    "pool_server_echo_wait",
    "pool_stage_summaries",
    "render_prometheus",
    "render_waterfall",
    "set_enabled",
    "validate_causal_report",
    "validate_snapshot",
    "validate_flight_log",
    "write_snapshot_atomic",
]
