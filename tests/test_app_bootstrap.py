"""The mosh-style bootstrap: SSH out-of-band key exchange (§2.1)."""

import io
import os
import sys
import time

import pytest

from repro.app.bootstrap import bootstrap, parse_connect_line
from repro.crypto.keys import Base64Key
from repro.errors import NetworkError
from repro.network.packet import MAX_CONN_ID

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="subprocess/pty tests"
)


class TestParseConnectLine:
    def test_valid(self):
        key = Base64Key.new()
        line = f"MOSH CONNECT 60001 {key.printable()} 7"
        assert parse_connect_line(line) == (60001, key, 7)

    def test_rejects_garbage(self):
        with pytest.raises(NetworkError):
            parse_connect_line("hello world")

    def test_rejects_bad_port(self):
        key = Base64Key.new().printable()
        with pytest.raises(NetworkError):
            parse_connect_line(f"MOSH CONNECT notaport {key} 1")
        with pytest.raises(NetworkError):
            parse_connect_line(f"MOSH CONNECT 99999 {key} 1")

    def test_rejects_bad_key(self):
        with pytest.raises(NetworkError):
            parse_connect_line("MOSH CONNECT 60001 short 1")

    def test_requires_conn_id(self):
        """Server ports route by connection id only: a four-field line
        names no session."""
        key = Base64Key.new().printable()
        with pytest.raises(NetworkError):
            parse_connect_line(f"MOSH CONNECT 60001 {key}")

    @pytest.mark.parametrize(
        "conn_id", ["-1", str(MAX_CONN_ID + 1), "18446744073709551616", "x1"]
    )
    def test_rejects_conn_id_out_of_range(self, conn_id):
        key = Base64Key.new().printable()
        with pytest.raises(NetworkError):
            parse_connect_line(f"MOSH CONNECT 60001 {key} {conn_id}")

    @pytest.mark.parametrize("conn_id", [0, MAX_CONN_ID])
    def test_accepts_conn_id_range_ends(self, conn_id):
        key = Base64Key.new()
        line = f"MOSH CONNECT 60001 {key.printable()} {conn_id}"
        assert parse_connect_line(line)[2] == conn_id


class TestBootstrap:
    def test_local_sh_transport(self):
        """Bootstrap through `sh -c` instead of ssh: same contract."""
        key = Base64Key.new().printable()
        result = bootstrap(
            "127.0.0.1",
            login_command=["sh", "-c"],
            server_command=(
                f"{sys.executable} -c \"print('MOSH CONNECT 60123 {key} 5')\""
            ),
            timeout_s=15.0,
        )
        try:
            assert result.port == 60123
            assert result.host == "127.0.0.1"
            assert result.key.printable() == key
            assert result.conn_id == 5
        finally:
            result.shutdown()

    def test_real_server_bootstrap_and_session(self):
        """Full dance: launch the real server through a local transport,
        parse its banner, connect a client, run a command."""
        result = bootstrap(
            "127.0.0.1",
            login_command=["sh", "-c"],
            server_command=(
                f"{sys.executable} -c \"from repro.cli import server_main; "
                "server_main(['--bind', '127.0.0.1', '--', '/bin/sh'])\""
            ),
            timeout_s=20.0,
        )
        from repro.app.client import ClientApp

        read_fd, write_fd = os.pipe()
        client = ClientApp(
            result.host,
            result.port,
            result.key,
            result.conn_id,
            stdin_fd=read_fd,
            stdout=io.BytesIO(),
        )
        try:
            deadline = time.monotonic() + 10.0
            typed = False
            while time.monotonic() < deadline:
                client.step(timeout_ms=20.0)
                if not typed and client.transport.remote_state_num > 0:
                    os.write(write_fd, b"echo bootstrap-works\n")
                    typed = True
                screen = client.transport.remote_state.fb.screen_text()
                if "bootstrap-works" in screen:
                    break
            assert "bootstrap-works" in client.transport.remote_state.fb.screen_text()
        finally:
            client.close()
            os.close(read_fd)
            os.close(write_fd)
            result.shutdown()

    def test_never_prints_connect_line(self):
        with pytest.raises(NetworkError):
            bootstrap(
                "127.0.0.1",
                login_command=["sh", "-c"],
                server_command="echo nothing useful",
                timeout_s=3.0,
            )

    def test_transport_failure(self):
        with pytest.raises(NetworkError):
            bootstrap(
                "127.0.0.1",
                login_command=["/definitely/not/a/binary"],
                server_command="x",
            )
