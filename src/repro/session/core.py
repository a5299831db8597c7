"""Endpoint-agnostic session cores: the Mosh endpoints, minus the world.

:class:`ServerCore` and :class:`ClientCore` contain every piece of session
logic the paper describes — user-event processing, echo-ack scheduling
(§3.2), prediction reporting and display-change detection (§3), and the
connectivity heartbeat — written purely against a
:class:`~repro.runtime.Reactor` and a
:class:`~repro.network.interface.DatagramEndpoint`.

The simulator shells (:mod:`repro.session.inprocess`) and the deployable
apps (:mod:`repro.app`) are thin bindings of these cores to a
:class:`~repro.runtime.SimReactor` or :class:`~repro.runtime.RealReactor`;
neither re-implements any of this logic. ``events_since`` handling and
echo-ack arming exist *only* here.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable

from repro.input.events import Resize, UserBytes
from repro.input.userstream import UserStream
from repro.network.interface import DatagramEndpoint
from repro.obs.causal import CausalTracer
from repro.obs.keystroke import KeystrokeLatencyTracker
from repro.prediction.engine import DisplayPreference, PredictionEngine
from repro.prediction.overlays import NotificationEngine
from repro.runtime.pump import SessionState, TransportPump
from repro.runtime.reactor import Reactor, TimerHandle
from repro.terminal.complete import Complete
from repro.terminal.framebuffer import Framebuffer
from repro.transport.timing import SenderTiming
from repro.transport.transport import Transport


class ServerCore:
    """Server endpoint: authoritative terminal, echo acks, app plumbing."""

    def __init__(
        self,
        reactor: Reactor,
        endpoint: DatagramEndpoint,
        width: int = 80,
        height: int = 24,
        timing: SenderTiming | None = None,
        record_send_log: bool = False,
        label: str | None = None,
    ) -> None:
        self.reactor = reactor
        #: Instrument-name prefix ("server", or "server.s3" under a
        #: daemon reactor hosting many cores).
        self.role = reactor.register_core("server", label)
        self.terminal = Complete(width, height)
        self.transport: Transport[Complete, UserStream] = Transport(
            endpoint, self.terminal, UserStream(), timing
        )
        self.transport.on_remote_state = self.handle_user_events
        self.transport.sender.record_send_log = record_send_log
        #: Server-visible slice of the causal waterfall: each input's
        #: arrival→echo-ack wait, read off the inputs the terminal's echo
        #: ack retires, so ``repro trace --attach`` has stage content on
        #: a daemon whose clients (and their full chains) live elsewhere.
        self.echo_wait = reactor.registry.histogram(
            f"{self.role}.causal.echo_wait_ms", unit="ms"
        )
        self._pump = TransportPump(reactor, self.transport, role=self.role)
        self._processed_events = 0
        self._echo_timer: TimerHandle | None = None
        #: Application hook: receives raw user bytes.
        self.on_input: Callable[[bytes], None] | None = None
        #: Resize hook (e.g. to SIGWINCH a pty).
        self.on_resize: Callable[[int, int], None] | None = None
        # Instrumentation: (write time, bytes, send time or None)
        self.write_log: list[list[float | int | None]] = []
        self.record_write_log = False

    # ------------------------------------------------------------------

    @property
    def pump(self) -> TransportPump:
        """The session's transport pump; its lifecycle state lives here."""
        return self._pump

    def kick(self) -> None:
        """Tick the transport now (app attach, harness settling, etc.).

        Local changes made through this core only poke the pump; this
        runs the full tick.
        """
        self._pump.kick()

    def close(self, state: SessionState) -> None:
        """Seal this session in the terminal ``state``, leaving no timer
        and no prefixed instrument of it on the reactor."""
        self._pump.seal(state)
        if self._echo_timer is not None:
            self._echo_timer.cancel()
            self._echo_timer = None
        self.reactor.registry.close_scope(self.role)

    def handle_user_events(self, now: float) -> None:
        """Apply newly received user events to the terminal and the app.

        The single ``events_since`` → ``register_input``/``resize`` site
        shared by the simulated and the real server.
        """
        stream = self.transport.remote_state
        events = stream.events_since(self._processed_events)
        tracer = self.reactor.tracer
        for offset, event in enumerate(events, start=self._processed_events + 1):
            if isinstance(event, UserBytes):
                self.terminal.register_input(offset, now)
                tracer.instant("server.input", cat="keystroke", index=offset)
                if self.on_input is not None:
                    self.on_input(event.data)
            elif isinstance(event, Resize):
                self.terminal.resize(event.cols, event.rows)
                if self.on_resize is not None:
                    self.on_resize(event.cols, event.rows)
        self._processed_events = stream.total_count
        self._arm_echo_ack()
        self._pump.kick()

    def _arm_echo_ack(self) -> None:
        when = self.terminal.next_echo_ack_time()
        if when is None:
            return
        if self._echo_timer is not None:
            self._echo_timer.cancel()
        self._echo_timer = self.reactor.call_at(
            max(when, self.reactor.now()), self._echo_ack_due
        )

    def _echo_ack_due(self) -> None:
        self._echo_timer = None
        now = self.reactor.now()
        retired = self.terminal.set_echo_ack(now)
        if retired:
            record = self.echo_wait.record
            for arrived in retired:
                record(now - arrived)
            self._pump.poke()
        self._arm_echo_ack()

    # ------------------------------------------------------------------

    def host_write(self, data: bytes) -> bytes:
        """The application wrote to its pty: update the terminal.

        Returns any terminal replies (cursor-position reports and the
        like) owed back to the host; logs the write time for the Figure 3
        instrumentation when enabled.
        """
        now = self.reactor.now()
        self.terminal.act(data)
        replies = self.terminal.drain_terminal_replies()
        if self.record_write_log:
            self.write_log.append([now, len(data), None])
        self._pump.poke()
        return replies

    def resolve_write_log(self) -> list[tuple[float, int, float]]:
        """Match logged writes to the send that shipped them.

        Returns (write_time, byte_count, protocol_delay_ms) tuples; the
        delay is what the paper's Figure 3 calls "protocol-induced delay".
        """
        # The send log is a ring buffer (deque); materialize it so the
        # index-based merge below stays O(n).
        sends = list(self.transport.sender.send_log)
        out: list[tuple[float, int, float]] = []
        send_idx = 0
        for write_time, nbytes, _ in self.write_log:
            while send_idx < len(sends) and sends[send_idx][0] < write_time:
                send_idx += 1
            if send_idx < len(sends):
                out.append(
                    (float(write_time), int(nbytes), sends[send_idx][0] - write_time)
                )
        return out


class ClientCore:
    """Client endpoint: mirrored terminal, predictions, display detection."""

    def __init__(
        self,
        reactor: Reactor,
        endpoint: DatagramEndpoint,
        width: int = 80,
        height: int = 24,
        timing: SenderTiming | None = None,
        preference: DisplayPreference = DisplayPreference.ADAPTIVE,
        heartbeat_ms: float | None = None,
        label: str | None = None,
    ) -> None:
        self.reactor = reactor
        #: Instrument-name prefix ("client", or "client.c3" when many
        #: clients share one reactor in multi-session harnesses).
        self.role = reactor.register_core("client", label)
        self.transport: Transport[UserStream, Complete] = Transport(
            endpoint, UserStream(), Complete(width, height), timing
        )
        self.transport.on_remote_state = self._on_new_frame
        self.predictor = PredictionEngine(preference)
        self.notifications = NotificationEngine()
        # Note liveness before the pump's tick processes the datagram, so
        # the warning bar clears on the same frame that proves the server
        # is alive. The pump chains this hook ahead of its own kick.
        endpoint.on_datagram = self.notifications.server_heard
        #: Per-keystroke echo latency: stamped at UserStream ingestion in
        #: :meth:`type_bytes`, settled when a frame's echo-ack covers the
        #: event index — the live form of the paper's Figure 2.
        keystroke_name = (
            "keystroke.echo_ms"
            if label is None
            else f"keystroke.{label}.echo_ms"
        )
        self.keystrokes = KeystrokeLatencyTracker(
            reactor.registry, name=keystroke_name
        )
        #: Causal attribution of each settled keystroke's echo latency to
        #: its pipeline stages (``causal.<stage>_ms`` histograms plus tail
        #: exemplars).
        self.causal = CausalTracer(reactor, label)
        endpoint.causal = self.causal
        # Pump construction comes after the tracer so its observability
        # wiring sees (and exports gauges for) the attached tracer.
        self._pump = TransportPump(reactor, self.transport, role=self.role)
        # The engine keeps its own tallies; the registry reads them through.
        for field in fields(self.predictor.stats):
            reactor.registry.counter(
                f"{self.role}.prediction.{field.name}",
                fn=lambda name=field.name: getattr(self.predictor.stats, name),
            )
        self._frames_rendered = reactor.registry.counter(
            "reactor.frames_rendered"
        )
        #: Display-change subscribers (renderers, the latency harness).
        self.on_display_change: Callable[[float], None] | None = None
        self._last_display: Framebuffer | None = None
        self._heartbeat_ms = heartbeat_ms
        if heartbeat_ms is not None:
            reactor.call_later(heartbeat_ms, self._heartbeat)

    # ------------------------------------------------------------------

    @property
    def remote_terminal(self) -> Complete:
        return self.transport.remote_state

    def display(self) -> Framebuffer:
        """What the user sees: authoritative frame + predictions + any
        connectivity warning bar."""
        shown = self.predictor.apply(self.remote_terminal.fb)
        return self.notifications.apply(shown, self.reactor.now())

    def _srtt(self) -> float:
        return self.transport.endpoint.srtt_estimate()

    def _on_new_frame(self, now: float) -> None:
        state = self.remote_terminal
        tracer = self.reactor.tracer
        settled = self.keystrokes.on_echo_ack(state.echo_ack, now)
        for index, latency_ms in settled:
            tracer.instant(
                "client.echo",
                cat="keystroke",
                index=index,
                latency_ms=round(latency_ms, 3),
            )
        if settled:
            self.causal.on_frame(now, settled, self.transport.last_frame_rx)
        self.predictor.report_frame(state.fb, state.echo_ack, now, self._srtt())
        self._note_display(now)

    def _note_display(self, now: float) -> None:
        # Received states are never mutated, so holding the shown frame by
        # reference is safe, and showing the same object again is no change.
        shown = self.display()
        last = self._last_display
        if shown is last:
            return
        self._last_display = shown
        if last is None or last != shown:
            self._frames_rendered.value += 1
            if self.on_display_change is not None:
                self.on_display_change(now)

    def _heartbeat(self) -> None:
        """Periodic display refresh so the connectivity warning bar can
        appear and age even while the network is silent."""
        self._note_display(self.reactor.now())
        if self._heartbeat_ms is not None:
            self.reactor.call_later(self._heartbeat_ms, self._heartbeat)

    # ------------------------------------------------------------------

    @property
    def pump(self) -> TransportPump:
        """The session's transport pump; its lifecycle state lives here."""
        return self._pump

    def kick(self) -> None:
        """Tick the transport now."""
        self._pump.kick()

    def type_bytes(self, data: bytes) -> list[bool]:
        """Send keystrokes; returns per-byte 'displayed instantly' flags."""
        now = self.reactor.now()
        stream = self.transport.local_state
        tracer = self.reactor.tracer
        flags: list[bool] = []
        for byte in data:
            stream.push_event(UserBytes(bytes([byte])))
            self.keystrokes.stamp(stream.total_count, now)
            self.causal.on_stamp(stream.total_count, now)
            tracer.instant(
                "client.keystroke", cat="keystroke", index=stream.total_count
            )
            flags.append(
                self.predictor.new_user_byte(
                    byte,
                    self.remote_terminal.fb,
                    now,
                    stream.total_count,
                    self._srtt(),
                )
            )
        self._pump.poke()
        self._note_display(now)
        return flags

    def resize(self, cols: int, rows: int) -> None:
        """Report a window-size change to the server; predictions reset."""
        self.transport.local_state.push_event(Resize(cols=cols, rows=rows))
        self.predictor.reset()
        self._pump.poke()
