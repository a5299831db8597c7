"""The real client: raw tty, predictions, differential rendering.

Renders each new frame by diffing the previously painted frame against the
prediction-overlaid state — the same :class:`~repro.terminal.Display`
machinery used on the wire, pointed at the local terminal. When the
server goes quiet past a few heartbeat intervals, a status line warns the
user, like real Mosh's blue bar.

Prediction wiring, display-change detection, and tick pacing all live in
:class:`~repro.session.core.ClientCore`; this module binds that core to a
:class:`~repro.runtime.RealReactor` whose select() loop watches the UDP
socket and stdin, and paints whenever the core reports a display change.
"""

from __future__ import annotations

import os
import sys
import termios
import tty

from repro.crypto.keys import Base64Key
from repro.crypto.session import Session
from repro.network.connection import UdpConnection
from repro.obs.flight import FlightRecorder
from repro.prediction.engine import DisplayPreference
from repro.runtime.reactor import RealReactor
from repro.session.core import ClientCore
from repro.terminal.display import Display
from repro.terminal.framebuffer import Framebuffer

_DISCONNECT_WARN_MS = 9000.0

#: How often the idle client refreshes its display so the connectivity
#: warning bar can appear and age while the server is silent.
_HEARTBEAT_MS = 1000.0


class ClientApp:
    """Interactive client connected to a :class:`repro.app.ServerApp`."""

    def __init__(
        self,
        host: str,
        port: int,
        key: Base64Key,
        conn_id: int,
        width: int = 80,
        height: int = 24,
        preference: DisplayPreference = DisplayPreference.ADAPTIVE,
        stdin_fd: int | None = None,
        stdout=None,
        flight: bool = False,
    ) -> None:
        # ``conn_id`` is the connect line's fifth field: every datagram
        # carries it, and the server's port routes by it alone.
        self.connection = UdpConnection(
            Session(key), is_server=False, conn_id=conn_id
        )
        self.connection.set_remote_addr((host, port))
        self.reactor = RealReactor()
        self.flight: FlightRecorder | None = None
        if flight:
            # Attached before the core so the transport pump publishes the
            # ring gauges.
            self.flight = FlightRecorder(
                "client", clock_domain=self.reactor.clock_domain
            )
            self.connection.flight = self.flight
        self.core = ClientCore(
            self.reactor,
            self.connection,
            width,
            height,
            preference=preference,
            heartbeat_ms=_HEARTBEAT_MS,
        )
        self.transport = self.core.transport
        self.predictor = self.core.predictor
        self.notifications = self.core.notifications
        self.core.on_display_change = lambda now: self.render()
        self._stdin_fd = stdin_fd if stdin_fd is not None else sys.stdin.fileno()
        self._stdout = stdout if stdout is not None else sys.stdout.buffer
        self._painted: Framebuffer | None = None
        self.running = False
        self.reactor.add_reader(self.connection.fileno(), self._socket_readable)
        self.reactor.add_reader(self._stdin_fd, self._stdin_readable)
        # First tick: sends the opening instruction toward the server and
        # arms the pump's self-scheduling timer.
        self.core.kick()

    # ------------------------------------------------------------------

    def _socket_readable(self) -> None:
        # Draining the socket fires the endpoint's on_datagram hook: the
        # core notes server liveness, ticks the transport, validates
        # predictions against the new frame, and reports display changes.
        self.connection.receive_ready()

    def _stdin_readable(self) -> None:
        data = os.read(self._stdin_fd, 4096)
        if data:
            self.send_input(data)

    def send_input(self, data: bytes) -> None:
        self.core.type_bytes(data)

    def send_resize(self, cols: int, rows: int) -> None:
        self.core.resize(cols, rows)

    def roam(self, bind_host: str | None = None) -> None:
        """Move to a fresh source address mid-session (§2.2 roaming).

        The socket rebinds to a new ephemeral port and the next outbound
        datagram — kicked immediately — still routes by connection id;
        the server answers the source of the newest authentic datagram.
        """
        self.reactor.remove_reader(self.connection.fileno())
        new_fd = self.connection.rebind(bind_host)
        self.reactor.add_reader(new_fd, self._socket_readable)
        self.core.kick()

    # ------------------------------------------------------------------

    def render(self) -> None:
        """Paint the display: frame + predictions + connectivity bar."""
        shown = self.core.display()
        if shown is self._painted:
            return
        diff = Display.new_frame(self._painted, shown)
        if diff:
            self._stdout.write(diff)
            self._stdout.flush()
        self._painted = shown

    def step(self, timeout_ms: float = 20.0) -> None:
        """One select()-driven iteration of the client loop."""
        self.reactor.run_once(timeout_ms)

    # ------------------------------------------------------------------

    def run(self) -> None:
        """Interactive loop with the controlling tty in raw mode."""
        old_attrs = termios.tcgetattr(self._stdin_fd)
        tty.setraw(self._stdin_fd)
        self.running = True
        try:
            self._stdout.write(b"\x1b[?1049h\x1b[2J")  # alternate screen
            self._stdout.flush()
            while self.running:
                self.step()
                if self._user_requested_quit():
                    break
        finally:
            termios.tcsetattr(self._stdin_fd, termios.TCSADRAIN, old_attrs)
            self._stdout.write(b"\x1b[?1049l\r\n[repro-mosh] disconnected\r\n")
            self._stdout.write(self.integrity_summary().encode() + b"\r\n")
            self._stdout.flush()

    # ------------------------------------------------------------------
    # Observability surface
    # ------------------------------------------------------------------

    def integrity_summary(self) -> str:
        """One-line datagram-integrity report for the shutdown banner."""
        stats = self.connection.session.stats
        return (
            f"[repro-mosh] integrity: {stats.auth_failures} auth failures, "
            f"{stats.replay_drops} replay drops"
        )

    def _user_requested_quit(self) -> bool:
        # The escape hatch: server silence beyond the warning threshold
        # plus a dead child is indistinguishable from a network partition,
        # so interactive quit is Ctrl-^ (0x1E) handled in send_input by
        # callers that want it; the library default never force-quits.
        return False

    def last_heard_age_ms(self) -> float | None:
        heard = self.connection.last_heard
        if heard is None:
            return None
        return self.reactor.now() - heard

    def close(self) -> None:
        self.running = False
        self.reactor.remove_reader(self.connection.fileno())
        self.reactor.remove_reader(self._stdin_fd)
        self.connection.close()
