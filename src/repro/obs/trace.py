"""Span tracing against the reactor clock.

A :class:`SpanTracer` records completed spans (``with tracer.span("seal")``)
and instant events into a bounded flat ring (:mod:`repro.obs.ring`); once
it is full, each new event overwrites the oldest and counts one in
``dropped_events``. Timestamps come from whatever clock callable the
tracer was built with — a reactor's ``now`` — so a simulated session and
a wall-clock session produce directly comparable traces (both in
milliseconds since their reactor's epoch).

Two exporters cover the common consumers:

* :meth:`export_chrome` writes the Chrome ``trace_event`` JSON format
  (load it at ``chrome://tracing`` or https://ui.perfetto.dev), with
  ``dropped_events`` under ``otherData``;
* :meth:`export_jsonl` writes one JSON object per line for ad-hoc
  scripting (``jq``-friendly).

Recording is flag-gated by :func:`repro.obs.registry.set_enabled`; a
span under the disabled flag costs two truth tests and nothing else.
"""

from __future__ import annotations

import json
from typing import Callable

from repro.obs import registry as _registry
from repro.obs.ring import FlatRing

#: Default ring-buffer bound: generous for a session (hours of paced
#: frames) while keeping a runaway producer's memory flat.
DEFAULT_CAPACITY = 16384

#: Shared empty args mapping for fast-path spans (never mutated).
_NO_ARGS: dict = {}


class _Span:
    """Context manager for one timed span (reused shape, tiny footprint)."""

    __slots__ = ("_tracer", "name", "cat", "args", "_t0")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        tracer._put(
            ("X", self.name, self.cat, self._t0,
             tracer._clock() - self._t0, self.args)
        )


class SpanTracer(FlatRing):
    """Bounded ring of spans and instants, timed by one clock callable.

    Each event is one 6-slot run of the flat ring (see
    :mod:`repro.obs.ring`): phase, name, category, start (ms), duration
    (ms) and the args mapping. ``record_span`` stores the shared empty
    args mapping, so it keeps nothing alive per span; ``span``,
    ``span_at`` and ``instant`` keep the ``**args`` dict their caller
    passed, which is the event's payload. Overwrites after the ring fills
    are counted in ``dropped_events``.
    """

    WIDTH = 6

    def __init__(
        self,
        clock: Callable[[], float],
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        super().__init__(capacity)
        self._clock = clock

    # -- recording ------------------------------------------------------

    def span(self, name: str, cat: str = "runtime", **args) -> "_Span":
        """``with tracer.span("seal"):`` — time the block as one span."""
        if not _registry._enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, args)

    def record_span(self, name: str, t0: float, cat: str = "runtime") -> None:
        """Fast-path span record for per-tick hot paths.

        The caller supplies the start time it already has in hand, so
        recording costs one clock read and one ring append — no context
        manager, no per-span object. Use ``with tracer.span(...)``
        everywhere the extra microsecond doesn't matter.
        """
        if not _registry._enabled:
            return
        record = ("X", name, cat, t0, self._clock() - t0, _NO_ARGS)
        ring = self._ring
        if len(ring) < self._limit:
            ring += record
        else:
            self._overwrite(record)

    def span_at(
        self,
        name: str,
        t0: float,
        dur_ms: float,
        cat: str = "runtime",
        **args,
    ) -> None:
        """Record a span with explicit start and duration.

        For retrospective spans reconstructed after the fact — e.g. a
        causal tracer exporting a slow keystroke's stage waterfall —
        where both endpoints of the interval are already known and no
        clock read is wanted.
        """
        if not _registry._enabled:
            return
        self._put(("X", name, cat, t0, dur_ms, args))

    def instant(self, name: str, cat: str = "runtime", **args) -> None:
        """Record a zero-duration event at the current clock reading."""
        if not _registry._enabled:
            return
        self._put(("i", name, cat, self._clock(), 0.0, args))

    # -- reading --------------------------------------------------------

    def events(self, cat: str | None = None) -> list[dict]:
        """Recorded events as dicts, optionally filtered by category."""
        out = []
        for ph, name, ecat, ts, dur, args in self._records():
            if cat is not None and ecat != cat:
                continue
            out.append(
                {
                    "ph": ph,
                    "name": name,
                    "cat": ecat,
                    "ts_ms": ts,
                    "dur_ms": dur,
                    "args": args,
                }
            )
        return out

    # -- exporters ------------------------------------------------------

    def trace_events(self) -> list[dict]:
        """Chrome ``trace_event`` dicts (timestamps in microseconds)."""
        out = []
        for ph, name, cat, ts, dur, args in self._records():
            event = {
                "name": name,
                "cat": cat,
                "ph": ph,
                "ts": round(ts * 1000.0, 3),  # Chrome wants microseconds
                "pid": 1,
                "tid": 1,
                "args": args,
            }
            if ph == "X":
                event["dur"] = round(dur * 1000.0, 3)
            else:
                event["s"] = "g"  # global-scope instant
            out.append(event)
        return out

    def export_chrome(self, path: str) -> int:
        """Write a Chrome-loadable trace JSON; returns the event count.

        ``otherData`` carries ``dropped_events``, so a trace whose ring
        wrapped says how many older events it lost.
        """
        events = self.trace_events()
        with open(path, "w") as f:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {"dropped_events": self.dropped_events},
                },
                f,
            )
        return len(events)

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per event; returns the event count."""
        events = self.events()
        with open(path, "w") as f:
            for event in events:
                f.write(json.dumps(event))
                f.write("\n")
        return len(events)


class _NullSpan:
    """Shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()
