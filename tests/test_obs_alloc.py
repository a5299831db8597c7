"""Always-on recording allocates no object that outlives the call.

The flight recorder and span tracer run per datagram and per tick. A
record that stays alive in a ring until the ring wraps is a tracked
container the cyclic GC counts towards its next collection, and a fleet
of sessions that keeps thousands of them alive collects often while
freeing nothing. These tests pin the flat-ring storage: recording grows
the set of GC-tracked objects by O(1), not by one object per event.

``SpanTracer.span``, ``span_at`` and ``instant`` keep the ``**args`` dict
their caller builds by design (it is the event's payload), so they are
not held to this; ``record_span``, the per-tick fast path, is.
"""

from __future__ import annotations

import gc

import pytest

from repro.obs.flight import DIR_C2S, DIR_S2C, FlightRecorder
from repro.obs.trace import SpanTracer
from repro.session import InProcessSession
from repro.simnet import LinkConfig

CALLS = 10_000


def _tracked_growth(record) -> int:
    """Growth of the GC-tracked object set over ``CALLS`` calls."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i in range(CALLS):
            record(i)
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


META = (1, 2, 0, 0, 7, 0, True, 12)
FRAG = (7, 0, True)

RECORDS = {
    "note_send": lambda rec, i: rec.note_send(
        float(i), DIR_C2S, i, 90, i & 0xFFFF, None, META
    ),
    "note_send_batched": lambda rec, i: rec.note_send(
        float(i), DIR_C2S, i, 90, i & 0xFFFF, None, META, 4
    ),
    "note_recv": lambda rec, i: rec.note_recv(
        float(i), DIR_S2C, i, 90, i & 0xFFFF, 3, frag=FRAG,
        reordered=False, rtt=41.0, srtt=40.5, rto=200.0,
    ),
    "note_instruction": lambda rec, i: rec.note_instruction(
        float(i), DIR_S2C, i, i + 1, i, 0, 12, frag_id=i
    ),
    "note_drop": lambda rec, i: rec.note_drop(
        float(i), DIR_C2S, "loss", seq=i, wire_len=90
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_flight_notes_allocate_nothing_that_survives(name):
    rec = FlightRecorder("client", capacity=CALLS)
    note = RECORDS[name]
    growth = _tracked_growth(lambda i: note(rec, i))
    assert len(rec) == CALLS
    assert growth < 100, f"{name}: {growth} tracked objects for {CALLS} events"


def test_flight_wrap_allocates_nothing_that_survives():
    rec = FlightRecorder("client", capacity=64)
    growth = _tracked_growth(lambda i: RECORDS["note_send"](rec, i))
    assert len(rec) == 64 and rec.dropped_events == CALLS - 64
    assert growth < 100


def test_record_span_allocates_nothing_that_survives():
    tracer = SpanTracer(lambda: 0.0, capacity=CALLS)
    growth = _tracked_growth(lambda i: tracer.record_span("tick", float(i)))
    assert len(tracer) == CALLS
    assert growth < 100


def test_idle_transport_tick_allocates_no_tracked_container():
    """A tick with nothing received and nothing due allocates nothing.

    The check is exact: with the gen0 threshold at 1 and one object
    already counted, the next tracked allocation starts a collection.
    """
    session = InProcessSession(LinkConfig(delay_ms=20.0), LinkConfig(delay_ms=20.0))
    session.connect()
    session.run_for(2000)
    transport = session.server.transport
    now = session.loop.now()
    transport.tick(now)  # settle whatever the last event left due
    collections = []

    def on_gc(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    thresholds = gc.get_threshold()
    gc.set_threshold(1, thresholds[1], thresholds[2])
    try:
        gc.collect(0)
        sentinel = []  # counts as one allocation: the next one collects
        gc.callbacks.append(on_gc)
        try:
            for _ in range(100):
                transport.tick(now)
        finally:
            gc.callbacks.remove(on_gc)
    finally:
        gc.set_threshold(*thresholds)
    assert sentinel == [] and collections == []
