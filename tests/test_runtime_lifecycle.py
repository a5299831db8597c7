"""One session lifecycle: the declared transition table, driven for real.

Every legal transition is taken once through the daemon's own entry
points (a host write wakes, ``suspend`` parks, the manager's one
teardown ends) and must bump exactly its own counter, once; the census
gauges follow. Leaving a terminal state raises, and a sealed pump never
ticks again. ``tests/test_daemon_mux.py`` drives the real reap and pty
exit paths.
"""

import pytest

from repro.crypto.session import Session
from repro.daemon.manager import SessionManager
from repro.daemon.mux import SessionMux
from repro.errors import ReactorError
from repro.network.interface import DatagramEndpoint
from repro.runtime.pump import (
    ACTIVE,
    CLOSED,
    DORMANT_AFTER_MS,
    PARKED,
    REAPED,
    TRANSITIONS,
    SessionState,
)
from repro.runtime.reactor import SimReactor

COUNTERS = sorted(set(TRANSITIONS.values())) + ["pump.dormant_wakes"]
LIVE = {ACTIVE, PARKED}


class Peer(DatagramEndpoint):
    """A client that only ever sends one authentic datagram at a time."""

    def __init__(self, record):
        super().__init__(Session(record.key), is_server=False)
        self.set_conn_id(record.conn_id)
        self.set_remote_addr("daemon")
        self.wire = []

    def _transmit(self, raw, now):
        self.wire.append(raw)


class Daemon:
    """One session on a simulated port, its peer, and the counters."""

    def __init__(self):
        self.reactor = SimReactor()
        self.mux = SessionMux(clock=self.reactor.now, registry=self.reactor.registry)
        self.mux.transmit = lambda raw, addr, now: None
        self.manager = SessionManager(self.reactor, self.mux)
        # No peer address yet, so the spawn's kick deep-parks the pump;
        # hearing the peer gives it one, and nothing to send yet.
        self.record = self.manager.spawn(width=20, height=4)
        self.pump = self.record.core.pump
        peer = Peer(self.record)
        peer.send(b"", now=0.0)
        self.mux.dispatch(peer.wire[-1], "peer")

    def write(self):
        """The host writes: the pump has a frame to send, and wakes."""
        self.record.core.host_write(b"x")

    def counts(self):
        registry = self.reactor.registry
        return {name: registry.counter(name).value for name in COUNTERS}

    def gauges(self):
        registry = self.reactor.registry
        return {
            state: registry.get(f"daemon.sessions_{state}").value
            for state in ("open", "parked", "active")
        }


def enter(daemon, state):
    """Take the pump from its state to ``state`` the way the daemon does."""
    if state is ACTIVE:
        daemon.write()
    elif state is PARKED:
        daemon.pump.suspend()
    else:
        assert daemon.manager.close(daemon.record.conn_id, state)


@pytest.mark.parametrize(
    "old,new", list(TRANSITIONS), ids=lambda state: state.name
)
def test_every_legal_transition_counts_once(old, new):
    daemon = Daemon()
    assert daemon.pump.state is PARKED
    if old is ACTIVE:
        enter(daemon, ACTIVE)
    assert daemon.pump.state is old
    before = daemon.counts()
    enter(daemon, new)
    assert daemon.pump.state is new
    after = daemon.counts()
    moved = {name: after[name] - before[name] for name in COUNTERS}
    assert moved == {
        name: int(name == TRANSITIONS[old, new]) for name in COUNTERS
    }
    assert daemon.gauges() == {
        "open": float(new in LIVE),
        "parked": float(new is PARKED),
        "active": float(new is ACTIVE),
    }


def test_a_wake_after_a_long_park_is_also_dormant():
    daemon = Daemon()
    daemon.reactor.run_for(DORMANT_AFTER_MS)
    before = daemon.counts()
    daemon.write()
    after = daemon.counts()
    assert after["pump.wakes"] - before["pump.wakes"] == 1
    assert after["pump.dormant_wakes"] - before["pump.dormant_wakes"] == 1


def test_table_is_every_move_out_of_a_live_state():
    assert set(TRANSITIONS) == {
        (old, new) for old in LIVE for new in SessionState if new is not old
    }


class TestSealed:
    def test_leaving_a_terminal_state_raises(self):
        daemon = Daemon()
        daemon.manager.close(daemon.record.conn_id)
        with pytest.raises(ReactorError):
            daemon.pump.suspend()
        with pytest.raises(ReactorError):
            daemon.pump.seal(REAPED)
        assert daemon.pump.state is CLOSED

    def test_kick_or_poke_on_a_closed_pump_ticks_nothing(self):
        daemon = Daemon()
        daemon.write()
        assert daemon.pump.state is ACTIVE
        core = daemon.record.core
        daemon.manager.close(daemon.record.conn_id)
        registry = daemon.reactor.registry
        ticks = registry.counter("reactor.ticks").value
        pending = daemon.reactor.timers.pending
        daemon.pump.kick()
        core.kick()
        core.host_write(b"still here")
        assert registry.counter("reactor.ticks").value == ticks
        assert daemon.reactor.timers.pending == pending
        assert daemon.pump.state is CLOSED
