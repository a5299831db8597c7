"""TransportPump: one sender tick per event, one armed timer per session.

The pump is the select() loop body: tick the transport, then sleep until
its next deadline. Kicks nested inside a running kick (a received
keystroke applied to the terminal, the echo app writing it back) must
not arm timers of their own, the armed timer must sit exactly on the
sender's deadline, and a parked or suspended pump must hold no timer.
"""

import pytest

from repro.runtime.pump import DORMANT_AFTER_MS, MIN_TICK_DELAY_MS
from repro.session.inprocess import InProcessSession
from repro.simnet.link import LinkConfig

LINK = LinkConfig(delay_ms=20.0)


def track_pump_timers(core):
    """Record every timer ``core``'s pump arms; returns the live-handle
    reader and the list of ``(when, handle)`` pairs."""
    reactor = core.reactor
    armed = []
    call_at = reactor.call_at

    def tracking_call_at(when_ms, callback):
        handle = call_at(when_ms, callback)
        if callback == core.pump.kick:
            armed.append((when_ms, handle))
        return handle

    reactor.call_at = tracking_call_at

    def live():
        return [handle for _, handle in armed if handle.active]

    return live, armed


def echo_session():
    """A connected session whose server runs the echo app."""
    session = InProcessSession(LINK, LINK, seed=7)
    server = session.server
    server.on_input = server.host_write
    server.host_write(b"$ ")
    session.connect()
    return session


class TestOneTimer:
    def test_echoed_keystroke_leaves_one_live_timer(self):
        """Receive -> handle_user_events -> host_write kicks the pump from
        inside its own kick; the server still holds exactly one timer."""
        session = echo_session()
        server = session.server
        live, _ = track_pump_timers(server)
        loop = session.loop
        echo = server.on_input
        counts = []

        def on_input(data):
            echo(data)
            # Runs once the outer kick has returned and re-armed.
            loop.schedule_at(loop.now(), lambda: counts.append(len(live())))

        server.on_input = on_input
        for i, key in enumerate(b"ls\r"):
            loop.schedule_at(
                3000.0 + 150.0 * i,
                lambda k=bytes([key]): session.client.type_bytes(k),
            )
        loop.run_until(5000.0)
        assert counts == [1, 1, 1]
        assert "$ ls" in server.terminal.fb.row_text(0)

    def test_at_most_one_live_timer_through_a_session(self):
        session = echo_session()
        live, armed = track_pump_timers(session.server)
        loop = session.loop
        peak = []

        def sample():
            peak.append(len(live()))
            if loop.now() < 6000.0:
                loop.schedule(1.0, sample)

        loop.schedule(0.0, sample)
        for i, key in enumerate(b"echo hi\r"):
            loop.schedule_at(
                2500.0 + 60.0 * i,
                lambda k=bytes([key]): session.client.type_bytes(k),
            )
        loop.run_until(6000.0)
        assert armed and max(peak) == 1


class TestArming:
    def test_armed_deadline_is_the_senders_deadline(self):
        session = echo_session()
        server = session.server
        _, armed = track_pump_timers(server)
        session.client.type_bytes(b"x")
        session.run_for(25.0)  # the keystroke lands, its echo is pending
        server.host_write(b"more output")
        now = session.loop.now()
        wait = server.transport.sender.wait_time(now)
        assert 0.0 < wait
        assert armed[-1][0] == now + wait

    def test_floor_applies_only_to_a_deadline_not_in_the_future(self):
        session = echo_session()
        server = session.server
        _, armed = track_pump_timers(server)
        sender = server.transport.sender
        tick = sender.tick
        waits = iter([0.43, 0.0])

        def scripted_tick(now):
            tick(now)
            return next(waits)

        sender.tick = scripted_tick
        now = session.loop.now()
        server.kick()
        assert armed[-1][0] == now + 0.43
        server.kick()
        assert armed[-1][0] == now + MIN_TICK_DELAY_MS

    def test_unchanged_deadline_keeps_the_armed_timer(self):
        session = echo_session()
        server = session.server
        _, armed = track_pump_timers(server)
        cancelled = session.reactor.registry.counter("reactor.timers_cancelled")
        server.kick()
        before = (len(armed), cancelled.value)
        server.kick()
        assert (len(armed), cancelled.value) == before


class TestNoTimerWhenParked:
    def test_deep_parked_pump_holds_no_timer(self):
        session = InProcessSession(LINK, LINK, seed=7)
        server = session.server
        live, _ = track_pump_timers(server)
        server.kick()  # no peer address yet: deep park
        assert server.pump.parked
        assert live() == []

    def test_dormant_pump_holds_no_timer(self):
        session = echo_session()
        server = session.server
        live, armed = track_pump_timers(server)
        # The client's machine sleeps and drops off the network.
        session.client.pump.suspend()
        session.network.unregister(session.client_endpoint.local_addr)
        session.run_for(DORMANT_AFTER_MS + 5000.0)
        assert server.pump.parked
        assert armed and live() == []

    @pytest.mark.parametrize("side", ["client", "server"])
    def test_suspended_pump_holds_no_timer(self, side):
        session = echo_session()
        core = getattr(session, side)
        live, _ = track_pump_timers(core)
        session.client.type_bytes(b"x")
        session.run_for(25.0)
        if side == "server":
            core.host_write(b"!")
        else:
            core.type_bytes(b"!")
        assert len(live()) == 1
        core.pump.suspend()
        assert core.pump.parked
        assert live() == []


class TestStateMemo:
    @staticmethod
    def sends_after(*writes):
        """Server sends over 4 s after ``writes``, 2 ms apart."""
        session = echo_session()
        server = session.server
        sender = server.transport.sender
        sender.record_send_log = True
        session.run_for(3000.0)
        sender.send_log.clear()
        for data in writes:
            server.host_write(data)
            session.run_for(2.0)  # inside the collection interval
        session.run_for(4000.0)
        return list(sender.send_log)

    def test_screen_changed_and_changed_back_sends_nothing(self):
        """The sender memoizes state comparisons by fingerprint pair; a
        change reverted before the frame goes out must still compare
        equal to what the client holds, so the server sends exactly what
        an untouched screen sends: its heartbeat."""
        quiet = self.sends_after()
        assert quiet and all(length == 0 for _, _, length in quiet)
        # Cursor forward, then back: two new versions, one old screen.
        assert self.sends_after(b"\x1b[3C", b"\x1b[3D") == quiet
        assert self.sends_after(b"\x1b[3C") != quiet
