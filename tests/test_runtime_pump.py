"""TransportPump: one sender tick per event, one armed timer per session.

The pump is the select() loop body: tick the transport, then sleep until
its next deadline. Kicks nested inside a running kick (a received
keystroke applied to the terminal, the echo app writing it back) must
not arm timers of their own, the armed timer must sit exactly on the
sender's deadline, and a parked or suspended pump must hold no timer.
A local change only pokes the pump: it re-arms the timer exactly as a
kick would, without a tick, and everything on the wire stays the same.
"""

import hashlib
import random

import pytest

from repro.crypto.keys import Base64Key
from repro.runtime.pump import (
    DORMANT_AFTER_MS,
    MIN_TICK_DELAY_MS,
    TransportPump,
)
from repro.session.inprocess import InProcessDaemon, InProcessSession
from repro.simnet.link import LinkConfig
from repro.transport.sender import TransportSender
from tests import test_wire_golden as wire

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


def ticks(session):
    return session.reactor.registry.counter("reactor.ticks").value


class TestPoke:
    def test_second_write_with_a_change_pending_runs_no_tick(self):
        session = echo_session()
        server = session.server
        live, armed = track_pump_timers(server)
        session.run_for(500.0)
        server.host_write(b"a")
        before = (ticks(session), len(armed), armed[-1][0])
        server.host_write(b"b")
        assert (ticks(session), len(armed), armed[-1][0]) == before
        assert live() == [armed[-1][1]]

    def test_first_write_after_a_send_arms_the_frame_deadline(self):
        session = echo_session()
        server = session.server
        sender = server.transport.sender
        sender.record_send_log = True
        endpoint = server.transport.endpoint
        _, armed = track_pump_timers(server)
        mindelay = sender.timing.send_mindelay_ms
        sender.send_log.clear()
        server.host_write(b"a")
        while not sender.send_log:
            session.run_for(0.25)
        sent_at = sender.send_log[-1][0]
        interval = sender.timing.send_interval(endpoint.srtt)
        for pause, frame_bound in ((0.0, True), (interval + 50.0, False)):
            session.run_for(pause)
            now = session.loop.now()
            before = ticks(session)
            server.host_write(b"b")
            expected = max(now + mindelay, sent_at + interval)
            assert (expected == sent_at + interval) is frame_bound
            assert armed[-1][0] == expected
            assert ticks(session) == before
            assert not server.pump.parked
            while sender.send_log[-1][0] == sent_at:
                session.run_for(0.25)
            sent_at = sender.send_log[-1][0]

    def test_write_to_a_suspended_pump_resumes_it(self):
        session = echo_session()
        server = session.server
        live, _ = track_pump_timers(server)
        server.pump.suspend()
        before = ticks(session)
        server.host_write(b"x")
        assert ticks(session) == before + 1
        assert not server.pump.parked
        assert len(live()) == 1

    def test_write_before_the_peer_address_deep_parks(self):
        session = InProcessSession(LINK, LINK, seed=7)
        server = session.server
        live, _ = track_pump_timers(server)
        server.host_write(b"$ ")
        assert ticks(session) == 1
        assert server.pump.parked
        assert live() == []

    def test_change_after_a_reverted_change_ticks(self):
        """A change reverted before its frame leaves the collection clock
        running with nothing pending; the next change may then be due at
        once, so only a tick can tell, and it sends at once."""
        session = echo_session()
        server = session.server
        sender = server.transport.sender
        sender.record_send_log = True
        session.run_for(3000.0)
        server.host_write(b"\x1b[3C")
        session.run_for(2.0)
        server.host_write(b"\x1b[3D")
        session.run_for(500.0)
        sent = len(sender.send_log)
        before = ticks(session)
        server.host_write(b"x")
        assert ticks(session) == before + 1
        assert len(sender.send_log) == sent + 1


def _flood() -> wire._WireTap:
    """One session on a 5 ms link fed a coloured log in small chunks."""
    link = LinkConfig(delay_ms=5.0)
    session = InProcessSession(link, link, seed=3)
    tap = wire._WireTap(session.network)
    server = session.server
    server.host_write(b"$ ")
    session.connect()
    rng = random.Random(1)
    at = 2100.0
    for _ in range(300):
        text = bytes(rng.choice(b"abcdefghij klmnop/.") for _ in range(rng.randint(16, 96)))
        chunk = b"\x1b[3%dm%s\x1b[0m\r\n" % (rng.randrange(8), text)
        session.loop.schedule_at(at, lambda c=chunk: server.host_write(c))
        at += rng.uniform(1.0, 6.0)
    session.run_for(at + 1000.0 - session.loop.now())
    assert session.client.remote_terminal.fb == server.terminal.fb
    return tap


def _observe(monkeypatch, scenario) -> tuple[dict, int]:
    """Everything a scenario puts on the wire and schedules, and its ticks."""
    worlds, senders = [], []
    for cls in (InProcessSession, InProcessDaemon):
        def capture(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            worlds.append(self)

        monkeypatch.setattr(cls, "__init__", capture)
    init_sender = TransportSender.__init__

    def capture_sender(self, *args, **kwargs):
        init_sender(self, *args, **kwargs)
        senders.append(self)

    monkeypatch.setattr(TransportSender, "__init__", capture_sender)
    # Every sender logs its sends, whatever its core asks for.
    monkeypatch.setattr(
        TransportSender,
        "record_send_log",
        property(lambda self: True, lambda self, value: None),
        raising=False,
    )
    monkeypatch.setattr(
        Base64Key, "new", classmethod(lambda cls: wire._key("poke"))
    )
    tap = scenario(monkeypatch)
    (world,) = worlds
    counters = world.reactor.registry.snapshot()["counters"]
    seen = {
        "wire": (tap.count, tap.hexdigest()),
        "send_logs": [list(sender.send_log) for sender in senders],
    }
    for name in ("reactor.timers_fired", "reactor.timers_cancelled",
                 "pump.parks", "pump.wakes"):
        seen[name] = counters[name]
    return seen, counters["reactor.ticks"]


@pytest.mark.parametrize(
    "scenario",
    [wire._single_session, lambda _: wire._daemon(), lambda _: _flood()],
    ids=["single_session", "daemon", "flood"],
)
def test_poke_is_a_kick_without_the_idle_ticks(monkeypatch, scenario):
    """Against a reference where every poke is a full kick, the poking
    pump seals the same datagrams at the same times, logs the same
    sends, fires and cancels the same timers and parks the same way;
    only the tick count differs."""
    with monkeypatch.context() as reference:
        reference.setattr(TransportPump, "poke", TransportPump.kick)
        expected, kick_ticks = _observe(reference, scenario)
    with monkeypatch.context() as change:
        seen, poke_ticks = _observe(change, scenario)
    assert seen == expected
    assert poke_ticks < kick_ticks
