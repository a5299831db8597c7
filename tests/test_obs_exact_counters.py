"""Every registry counter has one writer, so it is exact at every instant.

The crypto, framing, sender and prediction counters are incremented (or
read through) where their event happens. A forged datagram that never
wakes its session still shows up in ``crypto.auth_failures`` at once,
and ``crypto.datagrams_sealed`` equals the sum over the sessions whenever
it is sampled.

The golden snapshots in ``tests/data/exact_counters.json`` were recorded
from commit 4aed92c, before the counters moved to their single owners;
the counter values and instrument names must stay exactly the same. The
exceptions are ``reactor.ticks``, ``reactor.timers_cancelled``,
``reactor.timers_fired``, ``pump.parks`` and ``pump.wakes``, re-recorded
when nested pump kicks stopped arming stray timers (each orphaned timer
fired one extra tick), and ``reactor.ticks`` again when local changes
(host writes, keystrokes, echo acks) stopped ticking the transport and
only poke the pump.
Re-record with ``PYTHONPATH=src python tests/test_obs_exact_counters.py``.
"""

import json
import os
import sys

import pytest

from repro.network.packet import encode_conn_id
from repro.runtime.pump import PARKED
from repro.session.inprocess import InProcessDaemon, InProcessSession
from repro.simnet.link import LinkConfig

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "exact_counters.json")

LINK = LinkConfig(delay_ms=20.0, jitter_ms=4.0)


def _sessions(daemon):
    """Every crypto session on the daemon's reactor, servers then clients."""
    return [record.session for record in daemon.manager.records()] + [
        client.transport.endpoint.session for client in daemon.clients.values()
    ]


def _totals(sessions, name):
    return sum(getattr(session.stats, name) for session in sessions)


def _golden_doc(registry):
    snap = registry.snapshot()
    return {"counters": snap["counters"], "names": registry.names()}


def session_world():
    """A seeded session with typing, echo, one tampered and one replayed
    datagram; returns the registry after the last heartbeat settles."""
    session = InProcessSession(LINK, LINK, seed=11)
    sent = []
    endpoint = session.client_endpoint
    transmit = endpoint._transmit

    def capture(raw, now):
        sent.append(raw)
        transmit(raw, now)

    endpoint._transmit = capture
    server = session.server
    server.on_input = server.host_write
    server.host_write(b"$ ")
    session.connect()
    loop = session.loop
    for i, key in enumerate(b"echo hi\r"):
        loop.schedule_at(
            3000.0 + 170.0 * i,
            lambda k=bytes([key]): session.client.type_bytes(k),
        )
    loop.run_until(6000.0)
    tampered = bytearray(sent[-1])
    tampered[-1] ^= 0x01
    network = session.network
    network.send_datagram("client", "client-0", "server", bytes(tampered))
    network.send_datagram("client", "client-0", "server", sent[-2])
    loop.run_until(20_000.0)
    return session


def daemon_world():
    """Four daemon sessions typing through echo, then idle."""
    daemon = InProcessDaemon(LINK, LINK, sessions=4, seed=5)
    daemon.connect()
    loop = daemon.loop
    for slot, client in enumerate(daemon.clients.values()):
        for i, key in enumerate(b"ls -l\r"):
            loop.schedule_at(
                2500.0 + 40.0 * slot + 130.0 * i,
                lambda c=client, k=bytes([key]): c.type_bytes(k),
            )
    loop.run_until(15_000.0)
    # One last kick per pump: at the recording commit this flushed the
    # per-tick counter bridges; both builds count the same kicks.
    for record in daemon.manager.records():
        record.core.kick()
    for client in daemon.clients.values():
        client.kick()
    return daemon


def record() -> dict:
    return {
        "session": _golden_doc(session_world().reactor.registry),
        "daemon": _golden_doc(daemon_world().reactor.registry),
    }


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


class TestExactCounters:
    def test_forged_datagrams_to_parked_session_count_at_once(self):
        daemon = InProcessDaemon(LINK, LINK, sessions=2, seed=3)
        daemon.connect()
        daemon.run_for(4000.0)
        record = daemon.record(1)
        assert record.core.pump.state is PARKED
        registry = daemon.reactor.registry
        before = registry.counter("crypto.auth_failures").value
        client_addr = daemon.client(1).transport.endpoint.local_addr
        forged = encode_conn_id(1) + bytes(48)
        for _ in range(5):
            daemon.network.send_datagram(
                "client", client_addr, daemon.DAEMON_ADDR, forged
            )
        daemon.run_for(40.0)  # one link delay: no heartbeat in between
        # Forgeries never wake a session.
        assert record.core.pump.state is PARKED
        assert record.session.stats.auth_failures == 5
        assert registry.counter("crypto.auth_failures").value == before + 5

    def test_sealed_total_matches_sessions_at_every_sample(self):
        daemon = InProcessDaemon(LINK, LINK, sessions=4, seed=9)
        daemon.connect()
        loop = daemon.loop
        for slot, client in enumerate(daemon.clients.values()):
            for i in range(12):
                loop.schedule_at(
                    loop.now() + 7.0 * slot + 23.0 * i,
                    lambda c=client: c.type_bytes(b"x"),
                )
        sealed = daemon.reactor.registry.counter("crypto.datagrams_sealed")
        sessions = _sessions(daemon)
        misses = []
        for sample in range(200):
            loop.run_for(1.0)
            total = _totals(sessions, "datagrams_sealed")
            if sealed.value != total:
                misses.append((sample, sealed.value, total))
        assert misses == []

    def test_session_snapshot_matches_golden(self, golden):
        session = session_world()
        stats = session.server_endpoint.session.stats
        assert stats.auth_failures == 1
        assert stats.replay_drops == 1
        assert _golden_doc(session.reactor.registry) == golden["session"]

    def test_daemon_snapshot_matches_golden(self, golden):
        daemon = daemon_world()
        doc = _golden_doc(daemon.reactor.registry)
        counters = doc["counters"]
        sessions = _sessions(daemon)
        for name in ("datagrams_sealed", "datagrams_unsealed", "bytes_sealed"):
            assert counters[f"crypto.{name}"] == _totals(sessions, name)
        assert doc == golden["daemon"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
