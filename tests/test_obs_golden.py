"""Golden observability exports: every flight recording and span trace.

The wire golden scenarios of :mod:`tests.test_wire_golden` are re-run and
every flight recorder's ``recording()`` plus the reactor tracer's Chrome
``trace_events()`` are hashed as canonical JSON. The exports hold only
simulated-clock values, so the digests are host-independent. They pin
every event, field, key order and value the recorders export; the daemon
scenario runs with 64-event rings, so ring wrap, overwrite order and
``dropped_events`` are pinned too. A change to how the recorders store
events must leave these digests alone.
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


def _single_session_exports(monkeypatch) -> _Digest:
    captured = []
    original = InProcessSession.__init__

    def capture(self, *args, **kwargs):
        original(self, *args, **kwargs)
        captured.append(self)

    monkeypatch.setattr(InProcessSession, "__init__", capture)
    wire._single_session(monkeypatch)
    (session,) = captured
    digest = _Digest()
    client, server = session.flight_recordings()
    digest.add_recording("client", client)
    digest.add_recording("server", server)
    digest.add_trace(session.reactor.tracer)
    return digest


def _daemon_exports() -> tuple[_Digest, list[int]]:
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
    digest = _Digest()
    dropped = []
    recorders = [daemon.daemon_flight]
    for cid in daemon.conn_ids:
        recorders += [daemon.server_flights[cid], daemon.client_flights[cid]]
    for recorder in recorders:
        digest.add_recording(recorder.role, recorder.recording())
        dropped.append(recorder.dropped_events)
    digest.add_trace(daemon.reactor.tracer)
    return digest, dropped


def test_single_session_exports_are_pinned(monkeypatch):
    digest = _single_session_exports(monkeypatch)
    assert (digest.events, digest.hexdigest()) == (
        970,
        "2dfb0d542c09eec4ab0b337527b81fea8f9ec33e0488f8e7dc4440ae4de94a65",
    )


def test_daemon_exports_are_pinned():
    digest, dropped = _daemon_exports()
    # The daemon's own recorder logs only unroutable datagrams; every
    # session ring wraps.
    assert dropped == [0, 45, 61, 45, 61, 43, 60, 45, 61]
    assert (digest.events, digest.hexdigest()) == (
        1578,
        "72122e03ece79a8e738ee7b9f022fe9d153456f90e070de228a030886f3407d7",
    )
