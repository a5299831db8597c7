"""Shared transport states: equal states are one object, never a copy.

Once the transport stores a state nothing mutates it, so the sender's
snapshot of an unchanged state is the previous snapshot, an empty-diff
instruction stores its source object under the new number, a re-ack of
the front of the sent list changes nothing, and the client holds the
shown frame by reference. The differential oracle at the end turns the
fingerprints off (no sharing, no diff cache) and requires the very same
datagrams and screens: equal fingerprints must mean equal states.
"""

import pytest

from repro.crypto.keys import Base64Key
from repro.input.events import UserBytes
from repro.input.userstream import UserStream
from repro.session.inprocess import InProcessDaemon, InProcessSession
from repro.simnet.host import SimNetwork
from repro.simnet.link import LinkConfig
from repro.terminal.complete import Complete
from repro.transport.receiver import TransportReceiver
from repro.transport.sender import SentState, TransportSender
from tests.test_transport_sender_receiver import LoopbackEndpoint


def _type(stream, data=b"k"):
    stream.push_event(UserBytes(data))


def _write(terminal, data=b"k"):
    terminal.act(data)


STATES = [
    pytest.param(UserStream, _type, id="userstream"),
    pytest.param(Complete, _write, id="complete"),
]


def _sender(make):
    sender = TransportSender(LoopbackEndpoint(), make())
    sender.remote_heard(0.0)
    return sender


class TestSenderSnapshots:
    @pytest.mark.parametrize("make, change", STATES)
    def test_unchanged_state_shares_the_newest_snapshot(self, make, change):
        sender = _sender(make)
        sender.tick(0.0)  # opening empty ack of the unchanged state
        first, second = sender._sent_states
        assert second.state is first.state

    @pytest.mark.parametrize("make, change", STATES)
    def test_changed_state_gets_a_fresh_copy(self, make, change):
        sender = _sender(make)
        sender.tick(0.0)
        change(sender.state)
        sender.tick(100.0)  # starts the collection interval
        sender.tick(100.0 + sender.timing.send_mindelay_ms)
        back = sender._sent_states[-1]
        assert back.state is not sender._sent_states[-2].state
        assert back.state is not sender.state
        assert back.state == sender.state

    @pytest.mark.parametrize("make, change", STATES)
    def test_heartbeat_shares_the_acked_snapshot(self, make, change):
        sender = _sender(make)
        sender.tick(0.0)
        change(sender.state)
        sender.tick(100.0)
        sender.tick(100.0 + sender.timing.send_mindelay_ms)
        acked = sender._sent_states[-1]
        sender.process_acknowledgment_through(acked.num, 200.0)
        beat = 100.0 + sender.timing.send_mindelay_ms
        beat += sender.timing.heartbeat_interval_ms
        sender.remote_heard(beat)
        sender.tick(beat)
        assert sender.empty_acks_sent == 2
        assert [s.num for s in sender._sent_states] == [acked.num, acked.num + 1]
        assert sender._sent_states[-1].state is acked.state


class TestReceiverStates:
    @pytest.mark.parametrize("make", [UserStream, Complete])
    def test_empty_diff_stores_the_source_object(self, make):
        recv = TransportReceiver(make())
        source = recv.latest_state
        assert recv.process_instruction(0, 1, b"")
        assert recv.latest_num == 1
        assert recv.latest_state is source

    def test_screen_diff_leaves_the_source_rows_untouched(self):
        target = Complete(20, 4)
        target.act(b"hello\r\nworld")
        recv = TransportReceiver(Complete(20, 4))
        source = recv.latest_state
        rows = list(source.fb.rows)
        cells = [list(row.cells) for row in rows]
        assert recv.process_instruction(0, 1, target.diff_from(Complete(20, 4)))
        assert recv.latest_state is not source
        assert recv.latest_state.fb.screen_text() == target.fb.screen_text()
        assert source.fb.rows == rows
        assert [list(row.cells) for row in source.fb.rows] == cells
        assert source.fb.screen_text().strip() == ""

    def test_event_diff_leaves_the_source_events_untouched(self):
        recv = TransportReceiver(UserStream())
        recv.process_instruction(0, 1, UserBytes(b"a").encode())
        source = recv.latest_state
        events = list(source.events_since(0))
        recv.process_instruction(1, 2, UserBytes(b"b").encode())
        assert source.events_since(0) == events
        assert source.total_count == 1
        assert recv.latest_state.total_count == 2


def _sender_with_history(keys=5):
    """A sender whose list holds ``keys`` + 1 entries, one key apart."""
    sender = _sender(UserStream)
    now = 0.0
    for _ in range(keys):
        _type(sender.state)
        sender.tick(now)
        now += sender.timing.send_mindelay_ms
        sender.tick(now)
        now += 300.0
    return sender


class TestAcknowledgments:
    def test_reack_of_the_front_changes_nothing(self):
        sender = _sender_with_history()
        sender.process_acknowledgment_through(2, 5_000.0)
        listed = sender._sent_states
        assert listed[0].num == 2
        entries = [(s, s.num, s.state, s.timestamp) for s in listed]
        for _ in range(3):
            sender.process_acknowledgment_through(2, 6_000.0)
        assert sender._sent_states is listed
        after = [(s, s.num, s.state, s.timestamp) for s in listed]
        assert all(
            a is b for old, new in zip(entries, after) for a, b in zip(old, new)
        )
        assert len(after) == len(entries)

    def test_unknown_ack_changes_nothing(self):
        sender = _sender_with_history()
        listed = sender._sent_states
        entries = list(listed)
        sender.process_acknowledgment_through(99, 5_000.0)
        assert sender._sent_states is listed and listed == entries

    def test_later_ack_prunes_like_a_filter(self):
        sender = _sender_with_history()
        entries = list(sender._sent_states)
        ack = entries[3].num
        sender.process_acknowledgment_through(ack, 5_000.0)
        kept = [s for s in entries if s.num >= ack]
        assert len(sender._sent_states) == len(kept)
        assert all(a is b for a, b in zip(sender._sent_states, kept))
        # The acked history is pruned from the live state and every entry.
        known = entries[3].state.total_count
        assert sender.state._base == known
        assert all(s.state._base == known for s in sender._sent_states)


def _diffs_after_ack(shared: bool) -> list[bytes]:
    sender = _sender(UserStream)
    stream = sender.state
    entries = [sender._sent_states[0]]
    for num, data in enumerate((b"a", b"b", b"c"), start=1):
        _type(stream, data)
        snapshot = stream.copy()
        entries.append(SentState(2 * num - 1, snapshot, 0.0))
        twin = snapshot if shared else stream.copy()
        entries.append(SentState(2 * num, twin, 0.0))
    _type(stream, b"d")
    sender._sent_states = entries
    sender.process_acknowledgment_through(3, 1_000.0)
    diffs = [stream.diff_from(s.state) for s in sender._sent_states]
    sender.process_acknowledgment_through(4, 2_000.0)
    diffs += [stream.diff_from(s.state) for s in sender._sent_states]
    return diffs


class TestSharedSubtract:
    def test_shared_snapshot_prunes_like_copies(self):
        shared = _diffs_after_ack(shared=True)
        assert shared == _diffs_after_ack(shared=False)
        assert shared[0] == b"".join(
            UserBytes(k).encode() for k in (b"c", b"d")
        )


def _frames_rendered(session):
    return session.metrics_snapshot()["counters"]["reactor.frames_rendered"]


def _idle_session():
    link = LinkConfig(delay_ms=20.0)
    session = InProcessSession(link, link, seed=3)
    session.server.host_write(b"$ ")
    session.connect()
    return session


class TestClientDisplay:
    def test_unchanged_frame_is_not_rendered_again(self):
        session = _idle_session()
        client = session.client
        rendered = _frames_rendered(session)
        fb = client.remote_terminal.fb
        session.run_for(10_000.0)  # three heartbeats each way
        assert client.remote_terminal.fb is fb
        assert client.display() is fb
        client._note_display(session.loop.now())
        assert _frames_rendered(session) == rendered

    def test_warning_bar_counts_as_two_changes(self):
        session = _idle_session()
        client = session.client
        fb = client.remote_terminal.fb
        rendered = _frames_rendered(session)
        client.notifications.message = "reconnecting"
        client._note_display(session.loop.now())
        assert client.display() is not fb
        client.notifications.message = ""
        client._note_display(session.loop.now())
        assert client.display() is fb
        assert _frames_rendered(session) == rendered + 2


# ----------------------------------------------------------------------
# Differential oracle: fingerprints off must not change a single byte.
# ----------------------------------------------------------------------

LOSSY = LinkConfig(delay_ms=40.0, jitter_ms=15.0, loss=0.1, allow_reorder=True)


def _record_wire(monkeypatch):
    """Fixed keys and a log of every sealed datagram put on the network."""
    keys = iter(range(1, 1000))
    monkeypatch.setattr(
        Base64Key, "new", classmethod(lambda cls: cls(bytes([next(keys)]) * 16))
    )
    wire = []
    send = SimNetwork.send_datagram

    def logging_send(self, from_side, src_addr, dst_addr, raw):
        wire.append((self.loop.now(), src_addr, dst_addr, bytes(raw)))
        send(self, from_side, src_addr, dst_addr, raw)

    monkeypatch.setattr(SimNetwork, "send_datagram", logging_send)
    return wire


def _run_session():
    session = InProcessSession(LOSSY, LOSSY, seed=11)
    server = session.server
    server.on_input = server.host_write
    server.host_write(b"$ ")
    session.connect()
    for i, line in enumerate((b"ls -l", b"cat notes.txt", b"echo done")):
        for byte in line + b"\r":
            session.client.type_bytes(bytes([byte]))
            session.run_for(60.0)
        server.host_write(b"\x1b[1;32mline %d\x1b[0m output\r\n$ " % i)
        session.run_for(4_000.0)  # idle long enough for a heartbeat
    session.run_for(2_000.0)
    return [session.client.display().screen_text()]


def _run_daemon():
    daemon = InProcessDaemon(LOSSY, LOSSY, sessions=4, seed=5)
    daemon.connect()
    for step in range(6):
        for cid in daemon.conn_ids:
            if (step + cid) % 3:
                daemon.client(cid).type_bytes(b"%d" % cid)
        daemon.run_for(700.0 * (1 + step % 3))
    daemon.run_for(5_000.0)
    return [daemon.client(cid).display().screen_text() for cid in daemon.conn_ids]


def _oracle(monkeypatch, run, fingerprints: bool):
    with monkeypatch.context() as patch:
        wire = _record_wire(patch)
        if not fingerprints:
            patch.setattr(Complete, "fingerprint", lambda self: None)
            patch.setattr(UserStream, "fingerprint", lambda self: None)
        screens = run()
    return wire, screens


class TestFingerprintOracle:
    @pytest.mark.parametrize("run", [_run_session, _run_daemon])
    def test_sharing_matches_fingerprint_free_run(self, monkeypatch, run):
        wire, screens = _oracle(monkeypatch, run, fingerprints=True)
        plain_wire, plain_screens = _oracle(monkeypatch, run, fingerprints=False)
        assert len(wire) > 50
        assert wire == plain_wire
        assert screens == plain_screens
