"""The session daemon: one-port muxing by connection id, reaping.

Unit tests drive :class:`~repro.daemon.mux.SessionMux` with hand-built
datagrams; the integration tests stand up 256 concurrent sessions in the
simulator (asserting zero cross-session delivery via flight-recorder
fate partition) and a real-UDP daemon serving two clients, one of which
roams mid-stream.
"""

import gc
import io
import itertools
import os
import re
import sys
import threading
import time
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.keys import Base64Key
from repro.crypto.session import Session
from repro.daemon.mux import SessionMux
from repro.errors import NetworkError, ReactorError
from repro.network.interface import DatagramEndpoint
from repro.network.packet import CONN_WIRE_MAGIC
from repro.obs.flight import FlightRecorder
from repro.runtime.pump import ACTIVE, CLOSED, EXITED, REAPED


class WireClient(DatagramEndpoint):
    """A client endpoint whose transmits pile up in ``self.wire``."""

    def __init__(self, key, conn_id=None, addr="c"):
        super().__init__(Session(key), is_server=False)
        if conn_id is not None:
            self.set_conn_id(conn_id)
        self.addr = addr
        self.wire: list[bytes] = []
        self.set_remote_addr("daemon")

    def _transmit(self, raw, now):
        self.wire.append(raw)

    def datagram(self, payload=b"k", now=0.0):
        self.send(payload, now=now)
        return self.wire[-1]


def make_mux(**kw):
    t = [0.0]
    mux = SessionMux(clock=lambda: t[0], **kw)
    mux.transmit = lambda raw, addr, now: None
    return mux


class TestMuxLifecycle:
    def test_conn_id_allocation(self):
        mux = make_mux()
        a = mux.open_endpoint(Session(Base64Key.new()))
        b = mux.open_endpoint(Session(Base64Key.new()))
        assert (a.conn_id, b.conn_id) == (1, 2)
        assert mux.conn_ids == [1, 2]

    def test_explicit_conn_id_and_collision(self):
        mux = make_mux()
        mux.open_endpoint(Session(Base64Key.new()), conn_id=7)
        with pytest.raises(NetworkError):
            mux.open_endpoint(Session(Base64Key.new()), conn_id=7)

    def test_close_frees_route(self):
        mux = make_mux()
        key_a, key_b = Base64Key.new(), Base64Key.new()
        mux.open_endpoint(Session(key_a))
        endpoint_b = mux.open_endpoint(Session(key_b))
        client_b = WireClient(key_b, conn_id=endpoint_b.conn_id)
        assert mux.dispatch(client_b.datagram(), "addr-b") is endpoint_b
        endpoint_b.close()
        assert endpoint_b.conn_id not in mux.conn_ids
        assert mux.dispatch(client_b.datagram(), "addr-b") is None
        assert mux.registry.counter("daemon.no_route").value == 1


class TestMuxRouting:
    def test_routes_by_conn_id(self):
        mux = make_mux()
        key_a, key_b = Base64Key.new(), Base64Key.new()
        endpoint_a = mux.open_endpoint(Session(key_a))
        endpoint_b = mux.open_endpoint(Session(key_b))
        raw = WireClient(key_b, conn_id=endpoint_b.conn_id).datagram(b"for-b")
        assert mux.dispatch(raw, "anywhere") is endpoint_b
        assert endpoint_b.pop_received() == [b"for-b"]
        assert endpoint_a.pop_received() == []
        assert mux.registry.counter("daemon.datagrams_routed").value == 1

    def test_conn_id_routing_ignores_source_address(self):
        """Roaming by id: any source address reaches the named session."""
        mux = make_mux()
        key = Base64Key.new()
        endpoint = mux.open_endpoint(Session(key))
        client = WireClient(key, conn_id=endpoint.conn_id)
        mux.dispatch(client.datagram(b"a"), "addr-1")
        mux.dispatch(client.datagram(b"b"), "addr-2")
        assert endpoint.pop_received() == [b"a", b"b"]
        assert endpoint.remote_addr == "addr-2"

    def test_unknown_conn_id_counts_no_route(self):
        mux = make_mux()
        mux.open_endpoint(Session(Base64Key.new()))
        raw = WireClient(Base64Key.new(), conn_id=999).datagram()
        assert mux.dispatch(raw, "x") is None
        assert mux.registry.counter("daemon.no_route").value == 1

    def test_garbage_counts_bad_packet(self):
        mux = make_mux()
        mux.open_endpoint(Session(Base64Key.new()))
        mux.open_endpoint(Session(Base64Key.new()))
        # Unterminated varint: framing is recognizably v2 but unparseable.
        assert mux.dispatch(bytes([CONN_WIRE_MAGIC]) + b"\x80" * 12, "x") is None
        assert mux.registry.counter("daemon.bad_packets").value == 1

    @given(st.binary(max_size=128))
    def test_dispatch_never_raises(self, raw):
        mux = make_mux()
        mux.open_endpoint(Session(Base64Key.new()))
        mux.open_endpoint(Session(Base64Key.new()))
        mux.dispatch(raw, ("10.0.0.1", 4242))


class TestLegacyRouting:
    """Unframed (v1) datagrams: the port routes by conn id only, so they
    die pre-auth in O(1), whatever the fleet size."""

    @staticmethod
    def crypto_state(endpoints):
        return [
            (
                e.session.stats.datagrams_unsealed,
                e.session.stats.auth_failures,
                e.session.stats.replay_drops,
                e.datagrams_received,
            )
            for e in endpoints
        ]

    def test_unframed_refused_before_unseal_at_256_sessions(self, monkeypatch):
        flight = FlightRecorder("daemon")
        mux = make_mux(flight=flight)
        keys = [Base64Key.new() for _ in range(256)]
        endpoints = [mux.open_endpoint(Session(key)) for key in keys]
        unseals = []
        decrypt = Session.decrypt

        def spy(session, data):
            unseals.append(session)
            return decrypt(session, data)

        monkeypatch.setattr(Session, "decrypt", spy)
        before = self.crypto_state(endpoints)
        # One datagram sealed under a live session's own key, one of garbage.
        sealed = WireClient(keys[100]).datagram(b"v1")
        for n, raw in enumerate((sealed, bytes(64)), start=1):
            assert mux.dispatch(raw, ("10.0.0.9", 4000 + n)) is None
            assert mux.registry.counter("daemon.no_route").value == n
        assert unseals == []
        assert self.crypto_state(endpoints) == before
        assert mux.registry.counter("daemon.datagrams_routed").value == 0
        assert mux.registry.counter("daemon.bad_packets").value == 0
        drops = [e for e in flight.events() if e["ev"] == "drop"]
        assert [e["reason"] for e in drops] == ["no_route", "no_route"]
        assert drops[0]["seq"] == 0
        # The same session's framed datagram still routes.
        framed = WireClient(keys[100], conn_id=endpoints[100].conn_id)
        assert mux.dispatch(framed.datagram(b"v2"), "x") is endpoints[100]
        assert endpoints[100].pop_received() == [b"v2"]

    def test_unroutable_v1_counts_no_route(self):
        mux = make_mux()
        mux.open_endpoint(Session(Base64Key.new()))
        mux.open_endpoint(Session(Base64Key.new()))
        assert mux.dispatch(WireClient(Base64Key.new()).datagram(), "x") is None
        assert mux.registry.counter("daemon.no_route").value == 1

    def test_single_session_port_refuses_unframed(self):
        """One route is no exception: an unframed datagram, even one
        sealed under the session's key, never reaches the session."""
        mux = make_mux()
        key = Base64Key.new()
        endpoint = mux.open_endpoint(Session(key))
        for raw in (WireClient(key).datagram(b"v1"), bytes(64)):
            assert mux.dispatch(raw, "attacker") is None
        assert mux.registry.counter("daemon.no_route").value == 2
        assert endpoint.session.stats.auth_failures == 0
        assert endpoint.session.stats.datagrams_unsealed == 0
        assert endpoint.pop_received() == []


class TestIdleReaper:
    def make_daemon(self, idle_timeout_ms=5000.0, sessions=2):
        from repro.daemon.manager import SessionManager
        from repro.runtime.reactor import SimReactor
        from repro.simnet.eventloop import EventLoop

        loop = EventLoop()
        reactor = SimReactor(loop)
        mux = SessionMux(clock=loop.now, registry=reactor.registry)
        mux.transmit = lambda raw, addr, now: None
        manager = SessionManager(reactor, mux, idle_timeout_ms=idle_timeout_ms)
        for _ in range(sessions):
            manager.spawn(width=20, height=4)
        return loop, reactor, mux, manager

    @pytest.mark.parametrize(
        "timeout_ms", [float("nan"), float("inf"), 0.0, -1.0]
    )
    def test_rejects_non_finite_or_non_positive_timeout(self, timeout_ms):
        from repro.daemon.manager import SessionManager
        from repro.runtime.reactor import SimReactor

        reactor = SimReactor()
        mux = SessionMux(clock=reactor.now, registry=reactor.registry)
        with pytest.raises(ReactorError):
            SessionManager(reactor, mux, idle_timeout_ms=timeout_ms)

    def test_idle_sessions_reaped_and_routes_freed(self):
        loop, reactor, mux, manager = self.make_daemon()
        records = manager.records()
        loop.run_for(20_000)
        assert manager.conn_ids == []
        assert mux.conn_ids == []
        assert all(r.core.pump.state is REAPED for r in records)
        assert reactor.registry.counter("daemon.sessions_reaped").value == 2

    def test_heard_session_survives_the_sweep(self):
        loop, reactor, mux, manager = self.make_daemon()
        lively, idle = manager.records()
        client = WireClient(lively.key, conn_id=lively.conn_id)

        def keepalive():
            mux.dispatch(client.datagram(now=loop.now()), "client-addr")
            if manager.get(lively.conn_id) is not None:
                loop.schedule(2000.0, keepalive)

        keepalive()
        loop.run_for(12_000)
        assert manager.conn_ids == [lively.conn_id]
        assert idle.core.pump.state is REAPED
        assert reactor.registry.counter("daemon.sessions_reaped").value == 1

    def test_reap_cost_independent_of_parked_count(self):
        """O(active) scheduling: the idle-deadline machinery does the
        same per-session work whether the daemon holds 4 parked sessions
        or 64 — one deadline check per session per timeout period, never
        a periodic scan over the fleet."""

        def checks_per_session(sessions):
            loop, reactor, mux, manager = self.make_daemon(
                idle_timeout_ms=5000.0, sessions=sessions
            )
            # Keep every session alive so deadlines keep re-arming
            # (reaped sessions would stop generating checks).
            clients = {
                r.conn_id: WireClient(r.key, conn_id=r.conn_id)
                for r in manager.records()
            }

            def keepalive():
                for cid, client in clients.items():
                    mux.dispatch(client.datagram(now=loop.now()), f"a{cid}")
                loop.schedule(2000.0, keepalive)

            keepalive()
            loop.run_for(60_000)
            assert len(manager.conn_ids) == sessions
            checks = reactor.registry.counter("daemon.reap_checks").value
            return checks / sessions

        small, large = checks_per_session(4), checks_per_session(64)
        # Identical per-session work at 16x the fleet size.
        assert small == large

    def test_idle_connected_sessions_park_and_wake(self):
        """A session whose sender has drained parks (counted by the
        gauges); inbound traffic wakes it synchronously."""
        from repro.session.inprocess import InProcessDaemon
        from repro.simnet import LinkConfig

        daemon = InProcessDaemon(
            LinkConfig(delay_ms=10),
            LinkConfig(delay_ms=10),
            sessions=4,
            width=40,
            height=8,
            seed=5,
        )
        daemon.connect(warmup_ms=1500)
        daemon.client(1).type_bytes(b"hi")
        daemon.run_for(5000)
        parked = daemon.reactor.registry.get("daemon.sessions_parked")
        # Quiescent fleet: every server core should be parked.
        assert parked.value == 4.0
        gauges = daemon.metrics_snapshot()["gauges"]
        assert gauges["daemon.sessions_parked"] == 4.0
        assert gauges["daemon.sessions_active"] == 0.0
        # A keystroke wakes exactly that session...
        record = daemon.record(1)
        daemon.client(1).type_bytes(b"x")
        daemon.run_for(30.0)
        assert record.core.pump.state is ACTIVE
        assert parked.value == 3.0
        # ...and it re-parks once the exchange settles.
        daemon.run_for(3000)
        assert parked.value == 4.0

    def test_flight_budget_caps_ring_memory(self):
        """A daemon-level flight budget divides one event allowance
        across sessions and the aggregate gauges prove the bound."""
        from repro.session.inprocess import InProcessDaemon
        from repro.simnet import LinkConfig

        daemon = InProcessDaemon(
            LinkConfig(delay_ms=10),
            LinkConfig(delay_ms=10),
            sessions=8,
            width=40,
            height=8,
            seed=7,
            flight_budget=1024,
        )
        daemon.connect(warmup_ms=1500)
        for cid in daemon.conn_ids:
            daemon.client(cid).type_bytes(b"spam" * 8)
        daemon.run_for(4000)
        per_session = 1024 // 8
        for cid in daemon.conn_ids:
            assert daemon.server_flights[cid].capacity == per_session
        gauges = daemon.metrics_snapshot()["gauges"]
        assert gauges["daemon.flight.capacity_total"] == float(1024)
        assert 0 < gauges["daemon.flight.events_total"] <= 1024
        # The floor: a budget far below 64/session still leaves usable
        # rings rather than zero-capacity ones.
        tiny = InProcessDaemon(
            LinkConfig(delay_ms=10),
            LinkConfig(delay_ms=10),
            sessions=8,
            seed=8,
            flight_budget=8,
        )
        assert tiny.server_flights
        assert all(f.capacity == 64 for f in tiny.server_flights.values())


MARKER = re.compile(r"#(\d+)#")


class TestManySessionsOnePort:
    def test_256_sessions_zero_cross_delivery(self):
        """The acceptance bar: 256 concurrent sessions muxed on one
        simulated port, markers land only on their own screens, and the
        flight recordings partition cleanly session-by-session."""
        from repro.session.inprocess import InProcessDaemon
        from repro.simnet import LinkConfig

        daemon = InProcessDaemon(
            LinkConfig(delay_ms=10),
            LinkConfig(delay_ms=10),
            sessions=256,
            width=40,
            height=8,
            seed=3,
        )
        daemon.connect(warmup_ms=1500)
        for cid in daemon.conn_ids:
            daemon.client(cid).type_bytes(f"#{cid}#".encode())
        daemon.run_for(6000)

        for cid in daemon.conn_ids:
            screen = daemon.record(cid).core.terminal.fb.screen_text()
            labels = {int(m) for m in MARKER.findall(screen)}
            assert labels == {cid}, f"session {cid} screen shows {labels}"

        # No datagram was ever delivered to a session that refused it.
        for cid in daemon.conn_ids:
            record = daemon.record(cid)
            assert record.session.stats.auth_failures == 0
            assert record.endpoint.framing_drops == 0
            assert daemon.clients[cid].transport.endpoint.framing_drops == 0

        counters = daemon.metrics_snapshot()["counters"]
        assert counters["daemon.no_route"] == 0
        assert counters["daemon.bad_packets"] == 0
        assert counters["daemon.datagrams_routed"] >= 2 * 256

        # Fate partition: everything a session's server received is a
        # datagram its own client sent (seq-for-seq), and vice versa.
        for cid in daemon.conn_ids:
            server_events = daemon.server_flights[cid].events()
            client_events = daemon.client_flights[cid].events()
            client_sent = {
                e["seq"] for e in client_events if e["ev"] == "send"
            }
            server_got = {
                e["seq"] for e in server_events
                if e["ev"] == "recv" and e["dir"] == "c2s"
            }
            server_sent = {
                e["seq"] for e in server_events if e["ev"] == "send"
            }
            client_got = {
                e["seq"] for e in client_events
                if e["ev"] == "recv" and e["dir"] == "s2c"
            }
            assert server_got and server_got <= client_sent
            assert client_got and client_got <= server_sent
            assert not any(e["ev"] == "drop" for e in server_events)
            assert not any(e["ev"] == "drop" for e in client_events)

    def test_authentic_garbage_diff_spares_every_session(self):
        """An authenticated peer whose instruction carries a diff its
        server cannot apply loses that instruction, nothing else: the
        daemon's loop keeps running and the other session still echoes."""
        import struct
        import zlib

        from repro.session.inprocess import InProcessDaemon
        from repro.simnet import LinkConfig
        from repro.transport.instruction import encode_instruction

        daemon = InProcessDaemon(
            LinkConfig(delay_ms=10),
            LinkConfig(delay_ms=10),
            sessions=2,
            width=40,
            height=8,
            seed=6,
        )
        daemon.connect()
        bad_cid, good_cid = daemon.conn_ids
        receiver = daemon.record(bad_cid).core.transport.receiver
        base = receiver.latest_num
        encoded = encode_instruction(base, base + 100, 0, 0, b"\xffjunk")
        # One final fragment under an instruction id no real sender has
        # reached, so the server's assembly takes it as the newest.
        datagram = struct.pack("!QH", 1 << 40, 0x8000) + zlib.compress(encoded)
        endpoint = daemon.client(bad_cid).transport.endpoint
        endpoint.send(datagram, daemon.loop.now())
        daemon.run_for(500)
        assert receiver.malformed_ignored == 1
        assert receiver.latest_num == base

        daemon.client(good_cid).type_bytes(b"#still here#")
        daemon.run_for(2000)
        screen = daemon.record(good_cid).core.terminal.fb.screen_text()
        assert "#still here#" in screen
        assert "#still here#" in daemon.client(good_cid).display().screen_text()


class FakePty:
    """A pty whose child lives until the test says otherwise."""

    fds = itertools.count(100)

    def __init__(self, argv, width, height):
        self.fd = next(self.fds)
        self.live = True

    def fileno(self):
        return self.fd

    def write(self, data):
        pass

    def set_size(self, cols, rows):
        pass

    def read_available(self):
        return b""

    def alive(self):
        return self.live

    def terminate(self):
        self.live = False


class TestTeardown:
    """Close, reap and pty exit all run one teardown: the session sends
    nothing more, holds no timer or instrument, and is freed."""

    ENDS = {"close": CLOSED, "reap": REAPED, "exit": EXITED}

    @staticmethod
    def make_daemon(monkeypatch, on_call_at=None):
        """Two connected pty sessions (5 ms links, seed 1) that a 5 s idle
        timeout reaps once their client falls silent."""
        from repro.session.inprocess import InProcessDaemon
        from repro.simnet import LinkConfig

        link = LinkConfig(delay_ms=5.0)
        daemon = InProcessDaemon(
            link, link, sessions=0, seed=1, idle_timeout_ms=5000.0
        )
        readers = {}
        reactor = daemon.reactor
        monkeypatch.setattr(reactor, "add_reader", readers.__setitem__)
        monkeypatch.setattr(reactor, "remove_reader", readers.pop)
        monkeypatch.setattr(daemon.manager, "_pty_factory", FakePty)
        if on_call_at is not None:
            call_at = reactor.call_at

            def tracking_call_at(when_ms, callback):
                handle = call_at(when_ms, callback)
                on_call_at(callback, handle)
                return handle

            monkeypatch.setattr(reactor, "call_at", tracking_call_at)
        daemon.add_session()
        daemon.add_session()
        daemon.connect()
        return daemon, readers

    @staticmethod
    def end(daemon, readers, how):
        """End session 1 by ``how``; returns once it has ended."""
        if how == "close":
            assert daemon.manager.close(1)
        elif how == "exit":
            pty = daemon.record(1).pty
            pty.live = False
            readers[pty.fileno()]()  # EOF wakes the reader
        else:
            # The client's machine sleeps and drops off the network.
            client = daemon.client(1)
            client.pump.suspend()
            daemon.network.unregister(client.transport.endpoint.local_addr)
            for _ in range(100):
                if daemon.record(1) is None:
                    break
                daemon.run_for(100.0)
        assert daemon.record(1) is None

    @pytest.mark.parametrize("how", sorted(ENDS))
    def test_ended_session_sends_nothing(self, monkeypatch, how):
        timers = []
        daemon, readers = self.make_daemon(
            monkeypatch,
            lambda callback, handle: timers.append(
                (getattr(callback, "__self__", None), handle)
            ),
        )
        record = daemon.record(1)
        pump = record.core.pump
        self.end(daemon, readers, how)
        assert record.core.pump.state is self.ENDS[how]
        ended_at = pump.since
        daemon.run_for(12_000.0)
        sends = daemon.server_flights[1].events("send")
        assert [e["t"] for e in sends if e["t"] >= ended_at] == []
        assert [
            handle
            for owner, handle in timers
            if owner in (pump, record.core) and handle.active
        ] == []
        # The other session carries on.
        assert daemon.server_flights[2].events("send")[-1]["t"] > ended_at
        gauges = daemon.metrics_snapshot()["gauges"]
        assert gauges["daemon.sessions_open"] == 1.0

    @pytest.mark.parametrize("how", sorted(ENDS))
    def test_ended_session_is_freed(self, monkeypatch, how):
        daemon, readers = self.make_daemon(monkeypatch)
        core = weakref.ref(daemon.record(1).core)
        registry = daemon.reactor.registry
        sealed = registry.counter("crypto.datagrams_sealed").value
        self.end(daemon, readers, how)
        daemon.run_for(100.0)
        gc.collect()
        assert core() is None
        names = registry.names()
        assert [n for n in names if n.startswith("server.s1.")] == []
        assert [n for n in names if n.startswith("server.s2.")] != []
        # Reactor-wide totals keep what the session counted.
        assert registry.counter("crypto.datagrams_sealed").value >= sealed


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="pty/UDP tests are Linux-only",
)
class TestDaemonRealUdp:
    def test_two_clients_one_socket_one_roams(self):
        """One DaemonApp socket serves two pty shells; client 0 changes
        its source address mid-session and keeps its session."""
        from repro.app.client import ClientApp
        from repro.daemon.app import DaemonApp

        app = DaemonApp(
            argv=["/bin/sh"], bind_host="127.0.0.1", sessions=2,
            width=60, height=12,
        )
        thread = threading.Thread(
            target=app.run, kwargs={"idle_exit_ms": 30_000}, daemon=True
        )
        thread.start()
        records = app.manager.records()
        assert len({r.key.printable() for r in records}) == 2
        pipes = [os.pipe() for _ in records]
        clients = [
            ClientApp(
                "127.0.0.1",
                app.port,
                record.key,
                stdin_fd=read_fd,
                stdout=io.BytesIO(),
                conn_id=record.conn_id,
            )
            for record, (read_fd, _) in zip(records, pipes)
        ]
        try:
            markers = ["first-session-mark", "second-session-mark"]
            typed = [False, False]
            roamed = False
            roam_marker = "still-alive-after-roam"

            def screen(i):
                return clients[i].transport.remote_state.fb.screen_text()

            def pump():
                for c in clients:
                    c.step(timeout_ms=5.0)

            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                pump()
                for i, client in enumerate(clients):
                    if not typed[i] and client.transport.remote_state_num > 0:
                        os.write(pipes[i][1], f"echo {markers[i]}\n".encode())
                        typed[i] = True
                if all(markers[i] in screen(i) for i in (0, 1)):
                    break
            assert markers[0] in screen(0)
            assert markers[1] in screen(1)

            # Client 0 moves to a fresh source address mid-stream.
            old_port = clients[0].connection._sock.getsockname()[1]
            clients[0].roam("127.0.0.1")
            assert clients[0].connection._sock.getsockname()[1] != old_port
            os.write(pipes[0][1], f"echo {roam_marker}\n".encode())
            roamed = True
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and roam_marker not in screen(0):
                pump()
            assert roam_marker in screen(0), (
                f"post-roam marker missing:\n{screen(0)}"
            )

            # Nothing leaked across sessions, in either direction.
            assert markers[1] not in screen(0)
            assert markers[0] not in screen(1)
            assert roam_marker not in screen(1)
            for record in records:
                assert record.session.stats.auth_failures == 0
            assert app.reactor.registry.counter("daemon.no_route").value == 0
            assert "0 auth failures" in app.integrity_summary()
            assert roamed
        finally:
            for client in clients:
                client.close()
            app.running = False
            thread.join(timeout=10.0)
            app.shutdown()
            for read_fd, write_fd in pipes:
                os.close(read_fd)
                os.close(write_fd)

    def test_daemon_connect_lines_and_spawn(self):
        from repro.app.bootstrap import parse_connect_line
        from repro.daemon.app import DaemonApp

        app = DaemonApp(argv=["/bin/sh"], bind_host="127.0.0.1", sessions=2)
        try:
            lines = app.connect_lines()
            assert len(lines) == 2
            seen = set()
            for line, record in zip(lines, app.manager.records()):
                port, key, conn_id = parse_connect_line(line)
                assert port == app.port
                assert key == record.key
                assert conn_id == record.conn_id
                seen.add(conn_id)
            assert len(seen) == 2
            third = app.spawn()
            assert len(app.connect_lines()) == 3
            assert third.conn_id not in seen
        finally:
            app.shutdown()
