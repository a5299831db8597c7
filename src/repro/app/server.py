"""The real server: pty + authoritative terminal + SSP over UDP.

Bootstrapping follows §2.1: the server is started by ordinary means (in
real deployments, over SSH), binds a high UDP port, prints
``MOSH CONNECT <port> <key>`` on stdout, and thereafter speaks only
encrypted SSP. No privileged code anywhere.

Since the session-daemon refactor this is a one-session shell over the
same machinery :class:`~repro.daemon.app.DaemonApp` uses for N sessions:
a :class:`~repro.network.connection.MuxUdpConnection` owns the socket, a
:class:`~repro.daemon.manager.SessionManager` owns the (single) session,
and the select loop and metric names are unchanged — a solitary session
keeps the bare ``server`` instrument prefix. Like every daemon port it
routes by connection id only: the client must pass the fifth field of
:meth:`ServerApp.connect_line`, and an unframed datagram counts
``daemon.no_route`` rather than an auth failure.
"""

from __future__ import annotations

import sys

from repro.app.pty_host import PtyHost
from repro.crypto.keys import Base64Key
from repro.daemon.manager import SessionManager
from repro.network.connection import MuxUdpConnection
from repro.obs.flight import FlightRecorder
from repro.runtime.reactor import RealReactor


class ServerApp:
    """Reactor shell binding a pty to an SSP server core."""

    def __init__(
        self,
        argv: list[str] | None = None,
        bind_host: str = "0.0.0.0",
        port: int | None = None,
        width: int = 80,
        height: int = 24,
        key: Base64Key | None = None,
        flight: bool = False,
    ) -> None:
        self.key = key or Base64Key.new()
        self.reactor = RealReactor()
        self.flight: FlightRecorder | None = None
        if flight:
            # One ring serves both the endpoint's lifecycle events and
            # the port's pre-route drops: a single-session recording
            # reads exactly like the pre-daemon one. Attached before the
            # core so the transport pump publishes the ring gauges.
            self.flight = FlightRecorder(
                "server", clock_domain=self.reactor.clock_domain
            )
        self.connection = MuxUdpConnection(
            bind_host=bind_host,
            port=port,
            registry=self.reactor.registry,
            flight=self.flight,
        )
        self.manager = SessionManager(
            self.reactor,
            self.connection,
            pty_factory=PtyHost,
            flight_factory=(
                (lambda conn_id: self.flight) if self.flight is not None else None
            ),
        )
        # label=None keeps the bare "server" instrument prefix and the
        # unlabeled keystroke histogram, for metric-name compatibility.
        record = self.manager.spawn(
            key=self.key, width=width, height=height, argv=argv, label=None
        )
        self._record = record
        self.conn_id = record.conn_id
        self.core = record.core
        self.terminal = self.core.terminal
        self.transport = self.core.transport
        self.pty = record.pty
        self.reactor.add_reader(
            self.connection.fileno(), self.connection.receive_ready
        )
        self.running = False

    def connect_line(self) -> str:
        """The out-of-band bootstrap line, like mosh-server prints.

        The daemon's connection id rides along as a required fifth field.
        """
        return self._record.connect_line(self.connection.port)

    # ------------------------------------------------------------------

    def step(self, timeout_ms: float = 20.0) -> None:
        """One select()-driven iteration of the server loop."""
        self.reactor.run_once(timeout_ms)

    def run(self, idle_exit_ms: float | None = None) -> None:
        """Serve until the child exits (or the idle deadline passes)."""
        self.running = True
        started = self.reactor.now()
        try:
            while self.running and self.pty.alive():
                self.step()
                if (
                    idle_exit_ms is not None
                    and self._record.endpoint.last_heard is None
                    and self.reactor.now() - started > idle_exit_ms
                ):
                    break
        finally:
            self.shutdown()
            # stdout carries the MOSH CONNECT bootstrap line, so the
            # integrity report goes to stderr.
            print(self.integrity_summary(), file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------

    def integrity_summary(self) -> str:
        """One-line datagram-integrity report for the shutdown banner."""
        stats = self._record.session.stats
        return (
            f"[repro-mosh-server] integrity: "
            f"{stats.auth_failures} auth failures, "
            f"{stats.replay_drops} replay drops"
        )

    def shutdown(self) -> None:
        self.running = False
        self.reactor.remove_reader(self.connection.fileno())
        self.manager.close_all()
        self.connection.close()
