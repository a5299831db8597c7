"""The real thing: UDP sockets, AES-OCB, and a pty shell on localhost.

These are integration tests of the deployable path (repro.app.*); they use
real sockets bound to 127.0.0.1 and real child processes, so they are
slightly slower than the simulator tests.
"""

import io
import os
import sys
import threading
import time

import pytest

from repro.app.pty_host import PtyHost
from repro.app.server import ServerApp
from repro.app.client import ClientApp
from repro.crypto.keys import Base64Key
from repro.crypto.session import Session
from repro.network.connection import UdpConnection

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="pty/UDP tests are Linux-only"
)


class TestUdpConnection:
    def test_roundtrip_over_loopback(self):
        key = Base64Key.new()
        server = UdpConnection(Session(key), is_server=True, bind_host="127.0.0.1")
        client = UdpConnection(Session(key), is_server=False, bind_host="127.0.0.1")
        client.set_remote_addr(("127.0.0.1", server.port))
        try:
            client.send(b"ping", now=client.now())
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if server.receive_ready():
                    break
                time.sleep(0.01)
            assert server.pop_received() == [b"ping"]
            # Roaming bookkeeping: the server learned the client's address.
            assert server.remote_addr is not None
            server.send(b"pong", now=server.now())
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if client.receive_ready():
                    break
                time.sleep(0.01)
            assert client.pop_received() == [b"pong"]
        finally:
            server.close()
            client.close()

    def test_forged_datagram_dropped(self):
        key = Base64Key.new()
        server = UdpConnection(Session(key), is_server=True, bind_host="127.0.0.1")
        attacker = UdpConnection(
            Session(Base64Key.new()), is_server=False, bind_host="127.0.0.1"
        )
        attacker.set_remote_addr(("127.0.0.1", server.port))
        try:
            attacker.send(b"evil", now=attacker.now())
            time.sleep(0.1)
            server.receive_ready()
            assert server.pop_received() == []
            assert server.remote_addr is None  # never retargeted
        finally:
            server.close()
            attacker.close()


class TestPtyHost:
    def test_spawn_and_echo(self):
        pty = PtyHost(["/bin/sh"], width=80, height=24)
        try:
            pty.write(b"echo pty-works\n")
            output = bytearray()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                output += pty.read_available()
                if b"pty-works" in output:
                    break
                time.sleep(0.02)
            assert b"pty-works" in output
        finally:
            pty.terminate()

    def test_alive_and_terminate(self):
        pty = PtyHost(["/bin/sh"])
        assert pty.alive()
        pty.terminate()
        deadline = time.monotonic() + 3.0
        while pty.alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not pty.alive()

    def test_window_size(self):
        pty = PtyHost(["/bin/sh"], width=120, height=40)
        try:
            pty.write(b"stty size\n")
            output = bytearray()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                output += pty.read_available()
                if b"40 120" in output:
                    break
                time.sleep(0.02)
            assert b"40 120" in output
        finally:
            pty.terminate()


class TestFullSession:
    def test_command_round_trip(self):
        """The whole stack: keystrokes over encrypted UDP to a pty shell,
        frames synchronized back to a headless client."""
        server = ServerApp(argv=["/bin/sh"], bind_host="127.0.0.1")
        thread = threading.Thread(
            target=server.run, kwargs={"idle_exit_ms": 30_000}, daemon=True
        )
        thread.start()
        read_fd, write_fd = os.pipe()
        client = ClientApp(
            "127.0.0.1",
            server.connection.port,
            server.key,
            stdin_fd=read_fd,
            stdout=io.BytesIO(),
        )
        try:
            deadline = time.monotonic() + 10.0
            typed = False
            marker = "udp-session-works"
            while time.monotonic() < deadline:
                client.step(timeout_ms=20.0)
                if not typed and client.transport.remote_state_num > 0:
                    os.write(write_fd, f"echo {marker}\n".encode())
                    typed = True
                if typed and marker in client.transport.remote_state.fb.screen_text():
                    break
            screen = client.transport.remote_state.fb.screen_text()
            assert marker in screen, f"marker missing from screen:\n{screen}"
        finally:
            client.close()
            server.running = False
            server.shutdown()
            os.close(write_fd)
            os.close(read_fd)

    def test_tampered_datagrams_counted_and_summarized(self):
        """Garbage UDP at the server's port shows up as auth failures in
        the integrity summary and the bridged reactor metrics."""
        import socket

        server = ServerApp(argv=["/bin/sh"], bind_host="127.0.0.1")
        attacker = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            # Long enough to pass the length check, wrong key for the tag.
            attacker.sendto(bytes(64), ("127.0.0.1", server.connection.port))
            stats = server.connection.session.stats
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and stats.auth_failures == 0:
                server.step(timeout_ms=10.0)
            assert stats.auth_failures == 1
            assert "1 auth failures" in server.integrity_summary()
            assert "0 replay drops" in server.integrity_summary()
            # Counted into the registry where the unseal failed: no tick
            # has to run first.
            doc = server.reactor.registry.snapshot()
            assert doc["counters"]["crypto.auth_failures"] == 1
        finally:
            attacker.close()
            server.shutdown()

    def test_connect_line_format(self):
        server = ServerApp(argv=["/bin/sh"], bind_host="127.0.0.1")
        try:
            line = server.connect_line()
            parts = line.split()
            assert parts[:2] == ["MOSH", "CONNECT"]
            assert int(parts[2]) == server.connection.port
            assert Base64Key.from_printable(parts[3]) == server.key
        finally:
            server.shutdown()
