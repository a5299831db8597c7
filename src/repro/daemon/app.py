"""The deployable session daemon: N pty sessions on one UDP port.

Mosh runs one server process per session; this daemon folds N sessions
into one process and one port. A single :class:`~repro.runtime.reactor.
RealReactor` select() loop watches the shared socket plus every
session's pty; the :class:`~repro.daemon.mux.SessionMux` routes each
inbound datagram to its session, and per-session
:class:`~repro.session.core.ServerCore` instances run unchanged — each
believes it owns a private connection.

Bootstrap prints one ``MOSH CONNECT <port> <key> <conn_id>`` line per
session (the first four fields are exactly mosh-server's; the fifth is
required, since the port routes by conn id only). All sessions share the
port; keys and conn ids are per-session.
"""

from __future__ import annotations

import sys

from repro.app.pty_host import PtyHost
from repro.crypto.keys import Base64Key
from repro.daemon.manager import SessionManager, SessionRecord
from repro.network.batch import RxBatcher, WireBatcher
from repro.network.connection import MuxUdpConnection
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.health import HealthMonitor, default_fleet_ruleset
from repro.obs.telemetry import TelemetryServer
from repro.runtime.reactor import RealReactor


class DaemonApp:
    """Reactor shell serving many pty sessions from one UDP socket."""

    def __init__(
        self,
        argv: list[str] | None = None,
        bind_host: str = "0.0.0.0",
        port: int | None = None,
        sessions: int = 1,
        width: int = 80,
        height: int = 24,
        idle_timeout_ms: float | None = None,
        flight: bool = False,
        flight_budget: int | None = None,
        telemetry: str | None = None,
    ) -> None:
        self.reactor = RealReactor()
        self.flight: FlightRecorder | None = None
        # Daemon-level ring budget: one total event allowance divided
        # across the planned fleet (floor 64/session) instead of a
        # full-size ring per session; the manager's
        # ``daemon.flight.capacity_total`` gauge shows the resulting
        # ceiling.
        self._flight_capacity = DEFAULT_CAPACITY
        if flight_budget is not None:
            self._flight_capacity = max(64, flight_budget // max(1, sessions))
        if flight:
            # One daemon-level recorder holds pre-route fates (garbage,
            # unroutable ids); each session's endpoint gets its own ring.
            self.flight = self._recorder("daemon")
        self.connection = MuxUdpConnection(
            bind_host=bind_host,
            port=port,
            registry=self.reactor.registry,
            flight=self.flight,
        )
        self._argv = argv
        self._width = width
        self._height = height
        # Wire batching: one crypto pass + one sendmmsg burst per select
        # iteration across every session, flushed at the end of each
        # ``run_once`` (rx first so replies ride the same tick's batch).
        self.tx_batcher = WireBatcher(
            transmit_many=self.connection.transmit_many,
            registry=self.reactor.registry,
        )
        self.rx_batcher = RxBatcher(registry=self.reactor.registry)
        self.connection.rx_batcher = self.rx_batcher
        self.reactor.add_flush_hook(self.rx_batcher.flush)
        self.reactor.add_flush_hook(self.tx_batcher.flush)
        self.manager = SessionManager(
            self.reactor,
            self.connection,
            pty_factory=PtyHost,
            idle_timeout_ms=idle_timeout_ms,
            # Each session's ring lives on its endpoint and goes with it.
            flight_factory=(
                (lambda cid: self._recorder(f"server.s{cid}")) if flight else None
            ),
        )
        self.reactor.add_reader(
            self.connection.fileno(), self.connection.receive_ready
        )
        # The live telemetry plane. Health is always on (one 1 s timer
        # and a handful of rules); the control socket only when asked.
        self.health = HealthMonitor(
            self.reactor.registry,
            default_fleet_ruleset(),
            clock=self.reactor.now,
        )
        self.health.attach(self.reactor)
        self.telemetry: TelemetryServer | None = None
        if telemetry is not None:
            self.telemetry = TelemetryServer(
                self.reactor,
                self.reactor.registry,
                bind=telemetry,
                health=self.health,
            )
        self.running = False
        for _ in range(sessions):
            self.spawn()

    def _recorder(self, role: str) -> FlightRecorder:
        return FlightRecorder(
            role, self._flight_capacity, self.reactor.clock_domain
        )

    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self.connection.port

    def spawn(self, key: Base64Key | None = None) -> SessionRecord:
        """Bring up one more session on the shared port."""
        record = self.manager.spawn(
            key=key,
            width=self._width,
            height=self._height,
            argv=self._argv,
        )
        record.endpoint.batcher = self.tx_batcher
        record.endpoint.rx_stage = self.rx_batcher.stage
        return record

    def connect_lines(self) -> list[str]:
        """One bootstrap line per live session."""
        port = self.port
        return [r.connect_line(port) for r in self.manager.records()]

    # ------------------------------------------------------------------

    def step(self, timeout_ms: float = 20.0) -> None:
        """One select()-driven iteration of the daemon loop."""
        self.reactor.run_once(timeout_ms)

    def run(self, idle_exit_ms: float | None = None) -> None:
        """Serve until every session is gone (or nobody ever connected)."""
        self.running = True
        started = self.reactor.now()
        try:
            while self.running and self.manager.conn_ids:
                self.step()
                if (
                    idle_exit_ms is not None
                    and self.reactor.now() - started > idle_exit_ms
                    and all(
                        r.endpoint.last_heard is None
                        for r in self.manager.records()
                    )
                ):
                    break
        finally:
            self.shutdown()
            # stdout carries the MOSH CONNECT bootstrap lines, so the
            # integrity report goes to stderr.
            print(self.integrity_summary(), file=sys.stderr, flush=True)

    def shutdown(self) -> None:
        self.running = False
        self.health.detach()
        if self.telemetry is not None:
            self.telemetry.close()
        # Drain anything still staged so the last tick's datagrams leave
        # before the socket closes.
        self.rx_batcher.flush()
        self.tx_batcher.flush()
        self.reactor.remove_reader(self.connection.fileno())
        self.manager.close_all()
        self.connection.close()

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------

    def integrity_summary(self) -> str:
        """Datagram-integrity report over every session ever spawned: the
        reactor-wide totals keep what torn-down sessions counted."""
        count = self.reactor.registry.counter
        return (
            f"[repro-mosh-daemon] integrity: "
            f"{count('crypto.auth_failures').value} auth failures, "
            f"{count('crypto.replay_drops').value} replay drops across "
            f"{count('daemon.sessions_spawned').value} sessions"
        )
