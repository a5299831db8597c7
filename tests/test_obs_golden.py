"""Golden observability exports: every flight recording and span trace.

The wire golden scenarios of :mod:`tests.test_wire_golden` are re-run and
every flight recorder's ``recording()`` and the reactor tracer's Chrome
``trace_events()`` are hashed as canonical JSON, into two digests: one
over the flight recordings and one over the span trace. The exports
hold only simulated-clock values, so the digests are host-independent.
They pin every event, field, key order and value the recorders export;
the daemon scenario runs with 64-event rings, so ring wrap, overwrite
order and ``dropped_events`` are pinned too. A change to how the
recorders store events must leave these digests alone.

The flight recordings log datagrams and instructions only, so they move
only with the wire. The span trace also holds one ``{role}.tick`` span
per sender tick, so it moves whenever a different set of events ticks
the transport.
"""

from __future__ import annotations

import hashlib
import json

from repro.session import InProcessSession
from repro.session.inprocess import InProcessDaemon
from repro.simnet import LinkConfig
from tests import test_wire_golden as wire


class _Digest:
    def __init__(self) -> None:
        self.events = 0
        self._sha = hashlib.sha256()

    def add(self, label: str, doc: object, events: int) -> None:
        self.events += events
        self._sha.update(label.encode())
        self._sha.update(json.dumps(doc).encode())

    def add_recording(self, label: str, recording) -> None:
        header, events = recording
        self.add(label, [header, events], len(events))

    def add_trace(self, tracer) -> None:
        events = tracer.trace_events()
        self.add("trace", events, len(events))

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _single_session_exports(monkeypatch) -> tuple[_Digest, _Digest]:
    captured = []
    original = InProcessSession.__init__

    def capture(self, *args, **kwargs):
        original(self, *args, **kwargs)
        captured.append(self)

    monkeypatch.setattr(InProcessSession, "__init__", capture)
    wire._single_session(monkeypatch)
    (session,) = captured
    flights = _Digest()
    client, server = session.flight_recordings()
    flights.add_recording("client", client)
    flights.add_recording("server", server)
    trace = _Digest()
    trace.add_trace(session.reactor.tracer)
    return flights, trace


def _daemon_exports() -> tuple[_Digest, _Digest, list[int]]:
    daemon = InProcessDaemon(
        LinkConfig(delay_ms=25.0, jitter_ms=5.0),
        LinkConfig(delay_ms=25.0, jitter_ms=5.0),
        sessions=0,
        width=40,
        height=8,
        seed=4,
        flight_capacity=64,
    )
    for n in range(4):
        daemon.add_session(key=wire._key(f"golden-daemon-{n}"))
    daemon.connect()
    for cid in daemon.conn_ids:
        client = daemon.client(cid)
        for i, ch in enumerate(b"echo s%d; date; uptime\r" % cid):
            daemon.loop.schedule_at(
                2200 + cid * 40 + i * 110,
                lambda ch=ch, client=client: client.type_bytes(bytes([ch])),
            )
    daemon.run_for(9000)
    flights = _Digest()
    dropped = []
    recorders = [daemon.daemon_flight]
    for cid in daemon.conn_ids:
        recorders += [daemon.server_flights[cid], daemon.client_flights[cid]]
    for recorder in recorders:
        flights.add_recording(recorder.role, recorder.recording())
        dropped.append(recorder.dropped_events)
    trace = _Digest()
    trace.add_trace(daemon.reactor.tracer)
    return flights, trace, dropped


def test_single_session_exports_are_pinned(monkeypatch):
    flights, trace = _single_session_exports(monkeypatch)
    assert (flights.events, flights.hexdigest()) == (
        409,
        "8b6e41c875d445262d4371954e40bdc132ce75ba112bc9a251319c1d37c1bab4",
    )
    assert (trace.events, trace.hexdigest()) == (
        381,
        "8d9c6254f678f3256567c169d07d31ab4ad82b8f368e711468eab4fe636abcab",
    )


def test_daemon_exports_are_pinned():
    flights, trace, dropped = _daemon_exports()
    # The daemon's own recorder logs only unroutable datagrams; every
    # session ring wraps.
    assert dropped == [0, 45, 61, 45, 61, 43, 60, 45, 61]
    assert (flights.events, flights.hexdigest()) == (
        512,
        "3f7bb53ecbcfc7d9c9f5c5b07f1c4b07fc7c894c808284a6a20e9b6e96c53ba3",
    )
    assert (trace.events, trace.hexdigest()) == (
        890,
        "8bc9d0829c41f011cfb0287b00efa74c16c3907b3760b152a2bbc3e1b2916b1f",
    )
