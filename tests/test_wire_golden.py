"""Golden wire stream: every sealed datagram of two seeded scenarios.

Each scenario runs with fixed keys, and every datagram handed to the
simulated network is hashed together with its send time, side and
addresses. The digests pin the whole datagram path at once — nonces,
timestamps, fragment and instruction headers, compression, sealing and
pacing — so a refactor of any layer that changes one byte, or moves one
send by a microsecond, fails here. The pure-Python cipher and OpenSSL's
OCB3 produce the same bytes, so the same values hold on either backend.
"""

from __future__ import annotations

import hashlib
import random

from repro.crypto.keys import Base64Key
from repro.session import InProcessSession
from repro.session.inprocess import InProcessDaemon
from repro.simnet import LinkConfig


def _key(label: str) -> Base64Key:
    return Base64Key(hashlib.sha256(label.encode()).digest()[:16])


class _WireTap:
    """Hashes every datagram a :class:`SimNetwork` is asked to route."""

    def __init__(self, network) -> None:
        self.count = 0
        self._digest = hashlib.sha256()
        self._loop = network.loop
        self._inner = network.send_datagram
        network.send_datagram = self._send_datagram

    def _send_datagram(self, from_side, src_addr, dst_addr, raw) -> None:
        self.count += 1
        head = f"{self._loop.now():.6f}|{from_side}|{src_addr}|{dst_addr}|{len(raw)}|"
        self._digest.update(head.encode())
        self._digest.update(raw)
        self._inner(from_side, src_addr, dst_addr, raw)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _single_session(monkeypatch) -> _WireTap:
    monkeypatch.setattr(
        Base64Key, "new", classmethod(lambda cls: _key("golden-session"))
    )
    link = LinkConfig(delay_ms=40.0, loss=0.1, jitter_ms=15.0, allow_reorder=True)
    session = InProcessSession(link, link, seed=11)
    tap = _WireTap(session.network)

    def on_input(data: bytes) -> None:
        out = data.replace(b"\r", b"\r\nok\r\n$ ")
        session.loop.schedule(
            3.0, lambda: session.server.host_write(out)
        )

    session.server.on_input = on_input
    session.server.host_write(b"$ ")
    session.connect()
    typed = b"ls -l\rcat notes.txt\rgrep -n wire *.py\r"
    for i, ch in enumerate(typed):
        session.loop.schedule_at(
            2500 + i * 90, lambda ch=ch: session.client.type_bytes(bytes([ch]))
        )
    # Screenfuls of poorly compressible text: multi-fragment instructions.
    rng = random.Random(5)
    for burst in range(3):
        for i in range(24):
            line = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789 ")
                           for _ in range(79)).encode() + b"\r\n"
            session.loop.schedule_at(
                4000 + burst * 2500 + i * 7,
                lambda line=line: session.server.host_write(line),
            )
    # A mid-session roam: the server re-targets to the new source.
    session.loop.schedule_at(6100, lambda: session.client_endpoint.roam("client-1"))
    session.run_for(14_000)
    assert session.client.remote_terminal.fb == session.server.terminal.fb
    return tap


def _daemon() -> _WireTap:
    daemon = InProcessDaemon(
        LinkConfig(delay_ms=25.0, jitter_ms=5.0),
        LinkConfig(delay_ms=25.0, jitter_ms=5.0),
        sessions=0,
        width=40,
        height=8,
        seed=4,
    )
    tap = _WireTap(daemon.network)
    for n in range(4):
        daemon.add_session(key=_key(f"golden-daemon-{n}"))
    daemon.connect()
    for cid in daemon.conn_ids:
        client = daemon.client(cid)
        for i, ch in enumerate(b"echo s%d; date; uptime\r" % cid):
            daemon.loop.schedule_at(
                2200 + cid * 40 + i * 110,
                lambda ch=ch, client=client: client.type_bytes(bytes([ch])),
            )
    daemon.run_for(9000)
    for cid in daemon.conn_ids:
        assert f"echo s{cid}" in daemon.client(cid).remote_terminal.fb.row_text(0)
    return tap


def test_single_session_wire_is_pinned(monkeypatch):
    tap = _single_session(monkeypatch)
    assert (tap.count, tap.hexdigest()) == (
        146,
        "02a6a7dbf3e2d6493dfc2bbb08f22f560dabe934e8444de24692295179efc56f",
    )


def test_daemon_wire_is_pinned():
    tap = _daemon()
    assert (tap.count, tap.hexdigest()) == (
        311,
        "0935b435492a6306c65666f03c62ff930901fb79b5580071cca0b8ccdcb47606",
    )
