"""Sim/real parity: one scripted exchange, two reactors, identical results.

The same keystroke script drives a session built on the SimReactor (the
deterministic simulator) and on the RealReactor (real UDP sockets over
loopback). Because both paths share the session cores, the server must
receive the identical UserStream and the client must converge to the
identical framebuffer.
"""

import sys

import pytest

from repro.crypto.keys import Base64Key
from repro.crypto.session import Session
from repro.input.events import UserBytes
from repro.network.connection import UdpConnection
from repro.runtime import RealReactor
from repro.session import ClientCore, InProcessSession, ServerCore
from repro.simnet import LinkConfig

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="loopback UDP tests are Linux-only"
)

SCRIPT = b"echo hi\r"
PROMPT = b"$ "


def scripted_echo(data: bytes) -> bytes:
    """The deterministic 'shell': echo printables, prompt after Enter."""
    out = bytearray()
    for byte in data:
        out += b"\r\n$ " if byte == 0x0D else bytes([byte])
    return bytes(out)


def run_sim():
    session = InProcessSession(
        LinkConfig(delay_ms=20.0), LinkConfig(delay_ms=20.0), seed=3
    )
    session.server.on_input = lambda d: session.server.host_write(
        scripted_echo(d)
    )
    session.server.host_write(PROMPT)
    session.connect()
    for i, ch in enumerate(SCRIPT):
        session.loop.schedule_at(
            3000 + i * 50, lambda ch=ch: session.client.type_bytes(bytes([ch]))
        )
    session.loop.run_until(20_000)
    events = session.server.transport.remote_state.events_since(0)
    return events, session.client.remote_terminal.fb, session.server.terminal.fb


def run_real():
    key = Base64Key.new()
    server_conn = UdpConnection(Session(key), is_server=True, bind_host="127.0.0.1")
    client_conn = UdpConnection(Session(key), is_server=False, bind_host="127.0.0.1")
    client_conn.set_remote_addr(("127.0.0.1", server_conn.port))
    reactor = RealReactor()
    server = ServerCore(reactor, server_conn)
    client = ClientCore(reactor, client_conn)
    try:
        reactor.add_reader(server_conn.fileno(), server_conn.receive_ready)
        reactor.add_reader(client_conn.fileno(), client_conn.receive_ready)
        server.on_input = lambda d: server.host_write(scripted_echo(d))
        server.host_write(PROMPT)
        server.kick()
        client.kick()
        deadline = reactor.now() + 5000.0
        while reactor.now() < deadline and client.transport.remote_state_num == 0:
            reactor.run_once(10.0)
        assert client.transport.remote_state_num > 0, "never connected"
        for ch in SCRIPT:
            client.type_bytes(bytes([ch]))
            reactor.run_for(30.0)
        deadline = reactor.now() + 10_000.0
        while reactor.now() < deadline:
            reactor.run_once(10.0)
            stream = server.transport.remote_state
            if (
                stream.total_count == len(SCRIPT)
                and client.remote_terminal.fb == server.terminal.fb
            ):
                break
        events = server.transport.remote_state.events_since(0)
        return events, client.remote_terminal.fb, server.terminal.fb, reactor
    finally:
        server_conn.close()
        client_conn.close()


class TestSimRealParity:
    def test_identical_script_identical_outcome(self):
        sim_events, sim_client_fb, sim_server_fb = run_sim()
        real_events, real_client_fb, real_server_fb, _ = run_real()

        # Both servers received the exact same UserStream.
        expected = [UserBytes(bytes([ch])) for ch in SCRIPT]
        assert sim_events == expected
        assert real_events == expected

        # Each world converged (client mirrors its server)...
        assert sim_client_fb == sim_server_fb
        assert real_client_fb == real_server_fb

        # ...and the two worlds agree cell-for-cell.
        assert sim_client_fb.screen_text() == real_client_fb.screen_text()
        assert "echo hi" in sim_client_fb.screen_text()

    def test_span_trace_parity_sim_vs_real(self):
        """The same paced script yields the same keystroke event sequence.

        Timestamps differ (simulated vs wall clock), but the ordered
        (name, index) lifecycle — client.keystroke → server.input →
        client.echo, once per keystroke — must be identical on both
        runtimes. Keystrokes are paced so each settles before the next
        is typed, making the interleaving deterministic.
        """
        script = b"obs"
        expected = []
        for i in range(1, len(script) + 1):
            expected += [
                ("client.keystroke", i), ("server.input", i), ("client.echo", i)
            ]

        def keystroke_sequence(tracer):
            return [
                (e["name"], e["args"]["index"])
                for e in tracer.events(cat="keystroke")
            ]

        # Simulated runtime.
        session = InProcessSession(
            LinkConfig(delay_ms=20.0), LinkConfig(delay_ms=20.0), seed=5
        )
        session.server.on_input = lambda d: session.server.host_write(
            scripted_echo(d)
        )
        session.connect()
        for ch in script:
            session.client.type_bytes(bytes([ch]))
            deadline = session.loop.now() + 5000.0
            while (
                session.client.keystrokes.outstanding
                and session.loop.now() < deadline
            ):
                session.loop.run_for(10.0)
        sim_sequence = keystroke_sequence(session.reactor.tracer)

        # Real runtime: loopback UDP, wall clock, same cores.
        key = Base64Key.new()
        server_conn = UdpConnection(
            Session(key), is_server=True, bind_host="127.0.0.1"
        )
        client_conn = UdpConnection(
            Session(key), is_server=False, bind_host="127.0.0.1"
        )
        client_conn.set_remote_addr(("127.0.0.1", server_conn.port))
        reactor = RealReactor()
        server = ServerCore(reactor, server_conn)
        client = ClientCore(reactor, client_conn)
        try:
            reactor.add_reader(server_conn.fileno(), server_conn.receive_ready)
            reactor.add_reader(client_conn.fileno(), client_conn.receive_ready)
            server.on_input = lambda d: server.host_write(scripted_echo(d))
            server.kick()
            client.kick()
            deadline = reactor.now() + 5000.0
            while (
                reactor.now() < deadline
                and client.transport.remote_state_num == 0
            ):
                reactor.run_once(10.0)
            assert client.transport.remote_state_num > 0, "never connected"
            for ch in script:
                client.type_bytes(bytes([ch]))
                deadline = reactor.now() + 5000.0
                while client.keystrokes.outstanding and reactor.now() < deadline:
                    reactor.run_once(10.0)
            real_sequence = keystroke_sequence(reactor.tracer)
        finally:
            server_conn.close()
            client_conn.close()

        assert sim_sequence == expected
        assert real_sequence == expected

    def test_reactor_metrics_populated_on_both_paths(self):
        session = InProcessSession(
            LinkConfig(delay_ms=20.0), LinkConfig(delay_ms=20.0), seed=4
        )
        session.server.host_write(PROMPT)
        session.connect()
        session.loop.schedule_at(
            3000, lambda: session.client.type_bytes(b"x")
        )
        session.loop.run_until(6000)
        sim = session.metrics_snapshot()["counters"]
        for name in ("ticks", "datagrams_in", "datagrams_out",
                     "timers_fired", "frames_rendered"):
            assert sim[f"reactor.{name}"] > 0

        _, _, _, real_reactor = run_real()
        real = real_reactor.registry.snapshot()["counters"]
        for name in ("ticks", "datagrams_in", "datagrams_out",
                     "timers_fired", "frames_rendered", "io_events"):
            assert real[f"reactor.{name}"] > 0
