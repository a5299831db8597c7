"""An entire Mosh session inside the discrete-event simulator.

The server holds the authoritative :class:`~repro.terminal.Complete`
(terminal + echo ack) and receives a :class:`~repro.input.UserStream`;
the client mirrors them the other way and layers the prediction engine on
top. Host applications attach to the server through a simple callback:
whatever bytes the "application" writes go through ``server.host_write``.

All session logic lives in the endpoint-agnostic cores
(:mod:`repro.session.core`); this module merely binds them to a
:class:`~repro.runtime.SimReactor` so the whole system runs deterministically
on the simulated clock. The real-UDP equivalent (:mod:`repro.app`) binds
the same cores to a :class:`~repro.runtime.RealReactor`.
"""

from __future__ import annotations

from repro.crypto.keys import Base64Key
from repro.crypto.session import NullSession, Session
from repro.obs.flight import FlightRecorder, peek_seq
from repro.prediction.engine import DisplayPreference
from repro.runtime.reactor import SimReactor
from repro.session.core import ClientCore, ServerCore
from repro.simnet.eventloop import EventLoop
from repro.simnet.host import SimNetwork, SimUdpEndpoint
from repro.simnet.link import LinkConfig
from repro.transport.timing import SenderTiming


class MoshServer(ServerCore):
    """Server side on the simulator: a :class:`ServerCore` on a SimReactor."""

    def __init__(
        self,
        loop: EventLoop,
        endpoint: SimUdpEndpoint,
        width: int = 80,
        height: int = 24,
        timing: SenderTiming | None = None,
        reactor: SimReactor | None = None,
        label: str | None = None,
    ) -> None:
        super().__init__(
            reactor if reactor is not None else SimReactor(loop),
            endpoint,
            width,
            height,
            timing,
            record_send_log=True,
            label=label,
        )
        self.loop = loop


class MoshClient(ClientCore):
    """Client side on the simulator: a :class:`ClientCore` on a SimReactor."""

    def __init__(
        self,
        loop: EventLoop,
        endpoint: SimUdpEndpoint,
        width: int = 80,
        height: int = 24,
        timing: SenderTiming | None = None,
        preference: DisplayPreference = DisplayPreference.ADAPTIVE,
        reactor: SimReactor | None = None,
        label: str | None = None,
    ) -> None:
        super().__init__(
            reactor if reactor is not None else SimReactor(loop),
            endpoint,
            width,
            height,
            timing,
            preference,
            label=label,
        )
        self.loop = loop


class InProcessSession:
    """Everything assembled: reactor, links, endpoints, client, server."""

    def __init__(
        self,
        uplink: LinkConfig,
        downlink: LinkConfig,
        width: int = 80,
        height: int = 24,
        seed: int = 0,
        encrypt: bool = True,
        timing: SenderTiming | None = None,
        preference: DisplayPreference = DisplayPreference.ADAPTIVE,
    ) -> None:
        self.loop = EventLoop()
        self.reactor = SimReactor(self.loop)
        self.network = SimNetwork(self.loop, uplink, downlink, seed=seed)
        key = Base64Key.new() if encrypt else None
        make = (lambda: Session(key)) if encrypt else (lambda: NullSession())
        self.client_endpoint = SimUdpEndpoint(
            self.network, make(), is_server=False, local_addr="client-0"
        )
        self.server_endpoint = SimUdpEndpoint(
            self.network, make(), is_server=True, local_addr="server"
        )
        self.client_endpoint.set_remote_addr("server")
        # Flight recorders ride along by default: the simulator is where
        # wire-level forensics are cheapest (deterministic clock, ground-
        # truth link drops). Attached before the cores so the transport
        # pumps publish the ring gauges.
        domain = self.reactor.clock_domain
        self.client_flight = FlightRecorder("client", clock_domain=domain)
        self.server_flight = FlightRecorder("server", clock_domain=domain)
        self.client_endpoint.flight = self.client_flight
        self.server_endpoint.flight = self.server_flight
        self._wire_link_observers()
        self.server = MoshServer(
            self.loop, self.server_endpoint, width, height, timing,
            reactor=self.reactor,
        )
        self.client = MoshClient(
            self.loop,
            self.client_endpoint,
            width,
            height,
            timing,
            preference,
            reactor=self.reactor,
        )
        self._wire_link_gauges()

    def _wire_link_gauges(self) -> None:
        """Publish both simnet links into the shared registry.

        Queue depth is a live callable gauge (read at snapshot time);
        the links' own drop/delivery tallies are read the same way, as
        callable gauges.
        """
        registry = self.reactor.registry
        for name, link in (("uplink", self.network.uplink),
                           ("downlink", self.network.downlink)):
            registry.gauge(f"simnet.{name}.queue_bytes", fn=link.queue_depth_bytes)
            for counter in ("packets_sent", "packets_dropped_loss",
                            "packets_dropped_queue", "packets_delivered",
                            "bytes_delivered", "packets_reordered",
                            "packets_duplicated"):
                registry.gauge(
                    f"simnet.{name}.{counter}",
                    fn=(lambda lnk=link, attr=counter: getattr(lnk, attr)),
                )

    def _wire_link_observers(self) -> None:
        """Route link drops into the *sending* endpoint's flight recorder.

        The simulator knows the ground truth of every drop, so the
        recorder on the side that sent the packet logs the terminal fate
        directly instead of leaving it to be inferred from gaps. Uplink
        packets were sent by the client (direction ``c2s``); downlink by
        the server (``s2c``).
        """
        wiring = (
            (self.network.uplink, self.client_flight,
             self.client_endpoint.dir_out),
            (self.network.downlink, self.server_flight,
             self.server_endpoint.dir_out),
        )
        reasons = {"lost": "loss", "queue_drop": "queue"}
        for link, recorder, direction in wiring:
            def observe(
                fate: str,
                now: float,
                packet: object,
                size: int,
                recorder: FlightRecorder = recorder,
                direction: str = direction,
            ) -> None:
                reason = reasons.get(fate)
                if reason is not None:
                    recorder.note_drop(
                        now, direction, reason,
                        seq=peek_seq(packet), wire_len=size,
                    )
            link.observer = observe

    # -- observability exports ------------------------------------------

    def metrics_snapshot(self) -> dict:
        """The session-wide ``repro.obs/1`` snapshot document."""
        return self.reactor.registry.snapshot()

    def flight_recordings(self) -> tuple[tuple[dict, list], tuple[dict, list]]:
        """Both endpoints' (header, events) recordings, client first."""
        return self.client_flight.recording(), self.server_flight.recording()

    def run_for(self, duration_ms: float) -> None:
        """Advance the simulation by ``duration_ms``."""
        self.loop.run_for(duration_ms)

    def connect(self, warmup_ms: float = 2000.0) -> None:
        """Let the endpoints exchange first packets and measure the RTT."""
        self.client.kick()
        self.server.kick()
        self.run_for(warmup_ms)


class InProcessDaemon:
    """A session daemon and N concurrent clients inside the simulator.

    The multi-session counterpart of :class:`InProcessSession`: one
    :class:`~repro.runtime.SimReactor` drives every server core off a
    single timer heap, one :class:`~repro.simnet.host.SimMuxPort`
    address stands in for the daemon's UDP socket, and a
    :class:`~repro.daemon.mux.SessionMux` routes between them. Clients
    share the simulated links (so N sessions genuinely contend for
    bandwidth) and are labelled ``c<conn_id>``; servers ``s<conn_id>``.

    Every endpoint gets a flight recorder, so tests can assert the
    strongest isolation property directly: each session's recv fates
    partition cleanly against its own client's sends, with zero
    cross-session delivery.
    """

    DAEMON_ADDR = "daemon"

    def __init__(
        self,
        uplink: LinkConfig,
        downlink: LinkConfig,
        sessions: int = 2,
        width: int = 80,
        height: int = 24,
        seed: int = 0,
        timing: SenderTiming | None = None,
        preference: DisplayPreference = DisplayPreference.ADAPTIVE,
        idle_timeout_ms: float | None = None,
        conn_id_framing: bool = True,
        flight_capacity: int = 8192,
        flight_budget: int | None = None,
        wire_batch: bool = True,
    ) -> None:
        # Deferred import: repro.daemon.manager imports this package for
        # ServerCore, so binding at class-definition time would cycle.
        from repro.daemon.manager import SessionManager
        from repro.daemon.mux import SessionMux
        from repro.network.batch import RxBatcher, WireBatcher
        from repro.simnet.host import SimMuxPort

        self.loop = EventLoop()
        self.reactor = SimReactor(self.loop)
        self.network = SimNetwork(self.loop, uplink, downlink, seed=seed)
        self._timing = timing
        self._preference = preference
        self._width = width
        self._height = height
        self._conn_id_framing = conn_id_framing
        # ``flight_budget`` is the daemon-level cap: a total event budget
        # split evenly across the planned fleet, so 10k sessions cannot
        # hold 10k full-size rings. Per-session capacity floors at 64 so
        # a ring always holds a useful tail.
        if flight_budget is not None:
            flight_capacity = max(64, flight_budget // max(1, sessions))
        self._flight_capacity = flight_capacity
        #: Pre-route fates (garbage, unroutable conn ids) land here.
        self.daemon_flight = FlightRecorder(
            "daemon", flight_capacity, self.reactor.clock_domain
        )
        self.mux = SessionMux(
            clock=self.loop.now,
            registry=self.reactor.registry,
            flight=self.daemon_flight,
        )
        self.port = SimMuxPort(
            self.network, self.DAEMON_ADDR, handler=self.mux.dispatch
        )
        self.mux.transmit = self.port.transmit
        # Wire batching (on by default): the daemon's sessions share one
        # rx and one tx batcher, flushed at every event-loop tick boundary
        # — rx first, so a burst's replies join the same tick's outgoing
        # batch. Endpoints opt in as they are spawned (add_session).
        self.tx_batcher = None
        self.rx_batcher = None
        if wire_batch:
            self.tx_batcher = WireBatcher(registry=self.reactor.registry)
            self.rx_batcher = RxBatcher(registry=self.reactor.registry)
            self.reactor.add_flush_hook(self.rx_batcher.flush)
            self.reactor.add_flush_hook(self.tx_batcher.flush)
        self.server_flights: dict[int, FlightRecorder] = {}
        self.client_flights: dict[int, FlightRecorder] = {}
        self.manager = SessionManager(
            self.reactor,
            self.mux,
            idle_timeout_ms=idle_timeout_ms,
            flight_factory=self._server_flight,
        )
        self.clients: dict[int, MoshClient] = {}
        for _ in range(sessions):
            self.add_session()

    def _server_flight(self, conn_id: int) -> FlightRecorder:
        recorder = FlightRecorder(
            f"server.s{conn_id}", self._flight_capacity,
            self.reactor.clock_domain,
        )
        self.server_flights[conn_id] = recorder
        return recorder

    # ------------------------------------------------------------------

    def add_session(self, key: Base64Key | None = None):
        """Spawn one server session and its connected client; returns
        (record, client)."""
        key = key or Base64Key.new()
        record = self.manager.spawn(
            key=key, width=self._width, height=self._height,
            timing=self._timing,
        )
        cid = record.conn_id
        if self.tx_batcher is not None:
            record.endpoint.batcher = self.tx_batcher
            record.endpoint.rx_stage = self.rx_batcher.stage
        # The "application": echo user bytes straight back into the
        # session's terminal, so typed markers become screen content
        # without a pty.
        record.core.on_input = record.core.host_write
        client_endpoint = SimUdpEndpoint(
            self.network,
            Session(key),
            is_server=False,
            local_addr=f"client-{cid}",
            conn_id=cid if self._conn_id_framing else None,
        )
        client_endpoint.set_remote_addr(self.DAEMON_ADDR)
        recorder = FlightRecorder(
            f"client.c{cid}", self._flight_capacity,
            self.reactor.clock_domain,
        )
        self.client_flights[cid] = recorder
        client_endpoint.flight = recorder
        client = MoshClient(
            self.loop,
            client_endpoint,
            self._width,
            self._height,
            self._timing,
            self._preference,
            reactor=self.reactor,
            label=f"c{cid}",
        )
        self.clients[cid] = client
        return record, client

    @property
    def conn_ids(self) -> list[int]:
        return self.manager.conn_ids

    def client(self, conn_id: int) -> MoshClient:
        return self.clients[conn_id]

    def record(self, conn_id: int):
        return self.manager.get(conn_id)

    # ------------------------------------------------------------------

    def run_for(self, duration_ms: float) -> None:
        """Advance the simulation by ``duration_ms``."""
        self.loop.run_for(duration_ms)

    def connect(self, warmup_ms: float = 2000.0) -> None:
        """First packet exchange for every session."""
        for client in self.clients.values():
            client.kick()
        for record in self.manager.records():
            record.core.kick()
        self.run_for(warmup_ms)

    def metrics_snapshot(self) -> dict:
        """The daemon-wide ``repro.obs/1`` snapshot document."""
        return self.reactor.registry.snapshot()
