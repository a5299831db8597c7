"""The flat event ring shared by the flight recorder and the span tracer.

Both recorders run per datagram or per tick, for the life of a session.
Storing each event as its own tuple (or dict) keeps one tracked container
alive per event until the ring wraps, and a daemon with hundreds of
sessions keeps tens of thousands of them alive: the cyclic GC counts
every one towards its next collection and then frees none of them. A
:class:`FlatRing` instead stores each event as a fixed-width run of
scalars in one flat list. The list grows by ``+=`` until it holds
``capacity`` events, then the oldest run is overwritten in place and
counted in ``dropped_events``. The only container a record call builds
is the short-lived tuple it copies from, so the flight recorder's
``note_*`` methods and ``SpanTracer.record_span`` allocate nothing that
survives the call. (A span or instant with ``**args`` keeps that dict:
it is the event's payload.) The event dicts are built on read.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ObservabilityError


class FlatRing:
    """Bounded ring of ``WIDTH``-slot events in one flat list."""

    #: Slots per event; every record written must have exactly this many.
    WIDTH = 1

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ObservabilityError(
                f"{type(self).__name__} capacity must be >= 1"
            )
        self._capacity = capacity
        self._limit = capacity * self.WIDTH
        self._ring: list = []
        #: Slot of the oldest event once the ring is full (the next to go).
        self._next = 0
        #: Events overwritten after the ring filled: a recording that
        #: wrapped says so.
        self.dropped_events = 0

    def _put(self, record: tuple) -> None:
        """Append one ``WIDTH``-slot record, overwriting the oldest if full.

        The per-datagram and per-tick record methods inline the filling
        branch (``ring += record`` while ``len(ring) < self._limit``) and
        call :meth:`_overwrite` only once the ring is full, which saves a
        call per event.
        """
        ring = self._ring
        if len(ring) < self._limit:
            ring += record
        else:
            self._overwrite(record)

    def _overwrite(self, record: tuple) -> None:
        pos = self._next
        end = pos + self.WIDTH
        self._ring[pos:end] = record
        self._next = end if end < self._limit else 0
        self.dropped_events += 1

    def __len__(self) -> int:
        return len(self._ring) // self.WIDTH

    @property
    def capacity(self) -> int:
        """Ring capacity (events retained before overwrite)."""
        return self._capacity

    def _records(self) -> Iterator[list]:
        """Each retained event's slots, oldest first."""
        ring = self._ring
        width = self.WIDTH
        start = self._next
        for pos in range(start, len(ring), width):
            yield ring[pos:pos + width]
        for pos in range(0, start, width):
            yield ring[pos:pos + width]

    def clear(self) -> None:
        """Drop every recorded event and reset the overwrite count."""
        self._ring = []
        self._next = 0
        self.dropped_events = 0
