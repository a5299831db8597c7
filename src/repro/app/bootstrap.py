"""Session bootstrap: the `mosh` wrapper script (§2.1).

"To bootstrap the session, the user runs a script that logs in to the
remote host using conventional means (e.g., SSH) and runs the unprivileged
server. This program listens on a high UDP port and prints out a random
shared encryption key. The system then shuts down the SSH connection and
talks directly to the server over UDP."

:func:`bootstrap` runs exactly that dance over any transport command —
``ssh user@host`` in production, ``sh -c`` in tests — so key exchange
stays out-of-band and SSP itself never authenticates anybody.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
from dataclasses import dataclass

from repro.crypto.keys import Base64Key
from repro.errors import CryptoError, NetworkError
from repro.network.packet import MAX_CONN_ID

CONNECT_PREFIX = "MOSH CONNECT"


@dataclass(frozen=True)
class BootstrapResult:
    """What the wrapper learned from the remote server's banner."""

    host: str
    port: int
    key: Base64Key
    #: Mux connection id (the connect line's fifth field); the server's
    #: port routes by this id only.
    conn_id: int
    #: The login transport, kept alive as the server's parent (our server
    #: does not daemonize). Terminate it to end the remote server.
    transport: subprocess.Popen | None = None

    def shutdown(self) -> None:
        proc = self.transport
        if proc is None or proc.poll() is not None:
            return
        # Signal the transport's whole process group: a `sh -c` transport
        # dies on SIGTERM without forwarding it, which would orphan the
        # server it launched (the transport runs in its own session, so
        # its pid is the group id).
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            proc.terminate()
        try:
            proc.wait(timeout=3)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                proc.kill()
            proc.wait(timeout=3)


def parse_conn_id(text: str) -> int:
    """A connection id: a decimal integer in ``0..MAX_CONN_ID``."""
    try:
        conn_id = int(text)
    except ValueError as exc:
        raise NetworkError(f"bad connection id: {text!r}") from exc
    if not 0 <= conn_id <= MAX_CONN_ID:
        raise NetworkError(f"connection id {conn_id} out of range")
    return conn_id


def parse_connect_line(line: str) -> tuple[int, Base64Key, int]:
    """Parse ``MOSH CONNECT <port> <key> <conn_id>``.

    The server's port routes by connection id only, so the fifth field
    is required. Returns (port, key, conn_id).
    """
    parts = line.strip().split()
    if len(parts) != 5 or parts[0] != "MOSH" or parts[1] != "CONNECT":
        raise NetworkError(f"not a MOSH CONNECT line: {line!r}")
    try:
        port = int(parts[2])
    except ValueError as exc:
        raise NetworkError(f"bad port in connect line: {parts[2]!r}") from exc
    if not 0 < port < 65536:
        raise NetworkError(f"port {port} out of range")
    try:
        key = Base64Key.from_printable(parts[3])
    except CryptoError as exc:
        raise NetworkError(f"bad session key in connect line: {exc}") from exc
    return port, key, parse_conn_id(parts[4])


def bootstrap(
    host: str,
    login_command: list[str] | None = None,
    server_command: str = "repro-mosh-server",
    timeout_s: float = 30.0,
) -> BootstrapResult:
    """Start the remote server and return its port and session key.

    ``login_command`` is the conventional-means transport (defaults to
    ``ssh <host>``); the server is launched through it and its stdout is
    scanned for the connect line. All further communication is SSP over
    UDP. One divergence from real mosh-server: this server does not
    daemonize, so the transport process is intentionally left running as
    its parent; ending the session ends it.
    """
    if login_command is None:
        login_command = ["ssh", host]
    command = login_command + [server_command]
    try:
        proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            # Own session/group, so shutdown() can take down everything
            # the login command spawned, not just the command itself.
            start_new_session=True,
        )
    except OSError as exc:
        raise NetworkError(
            f"cannot run {shlex.join(command)}: {exc}"
        ) from exc
    try:
        import select
        import time

        deadline = time.monotonic() + timeout_s
        assert proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 0.2)
            if not ready:
                if proc.poll() is not None:
                    break
                continue
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith(CONNECT_PREFIX):
                port, key, conn_id = parse_connect_line(line)
                return BootstrapResult(
                    host=host, port=port, key=key, transport=proc,
                    conn_id=conn_id,
                )
        raise NetworkError(
            f"server never printed a {CONNECT_PREFIX} line via "
            f"{shlex.join(login_command)}"
        )
    except Exception:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            proc.terminate()
        raise
