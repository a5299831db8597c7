"""End-to-end keystroke latency: stamp at ingestion, settle at echo-ack.

This is the live version of the paper's Figure 2 pipeline. Every user
keystroke already carries a durable identifier — its absolute index in
the :class:`~repro.input.userstream.UserStream` event log — and the
server's ``echo_ack`` field names the newest index "whose effects ought
to be reflected in the current screen" (§3.2). So end-to-end latency
needs no new wire format: the client stamps each index when the
keystroke enters its UserStream, and settles the stamp when an
authoritative frame arrives whose echo-ack covers it.

The resulting histogram is the per-keystroke echo-response distribution
a live session emits continuously; the trace-replay harness produces the
same figure offline.
"""

from __future__ import annotations

from collections import deque

from repro.obs.registry import Histogram, MetricsRegistry

#: Stamps outstanding at once; typing bursts are tiny compared to this,
#: and a dead link simply ages the oldest stamps out of the window.
PENDING_MAX = 4096


class KeystrokeLatencyTracker:
    """Stamps keystroke indices and resolves them against echo-acks."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        name: str = "keystroke.echo_ms",
    ) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        #: Echo-response latency, milliseconds of reactor time.
        self.histogram: Histogram = registry.histogram(name, unit="ms")
        self.typed = registry.counter("keystroke.typed")
        self.settled = registry.counter("keystroke.settled")
        self._pending: deque[tuple[int, float]] = deque(maxlen=PENDING_MAX)

    def stamp(self, index: int, now: float) -> None:
        """A keystroke with UserStream index ``index`` was just typed."""
        self.typed.inc()
        self._pending.append((index, now))

    def on_echo_ack(self, echo_ack: int, now: float) -> list[tuple[int, float]]:
        """Settle every stamped keystroke the server has acknowledged.

        Returns the (index, latency_ms) pairs settled by this frame so
        the caller can emit per-keystroke trace events.
        """
        if not self._pending or self._pending[0][0] > echo_ack:
            return []
        settled: list[tuple[int, float]] = []
        pending = self._pending
        record = self.histogram.record
        while pending and pending[0][0] <= echo_ack:
            index, stamped_at = pending.popleft()
            latency = now - stamped_at
            record(latency)
            settled.append((index, latency))
        self.settled.inc(len(settled))
        return settled

    @property
    def outstanding(self) -> int:
        """Stamps not yet covered by any echo-ack."""
        return len(self._pending)
