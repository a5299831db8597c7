"""Transport sender/receiver over a scriptable in-memory endpoint."""

from collections import namedtuple

import pytest

from repro.errors import StateError
from repro.input.events import UserBytes
from repro.input.userstream import UserStream
from repro.network.interface import DatagramEndpoint
from repro.crypto.session import NullSession
from repro.transport.instruction import decode_instruction
from repro.transport.receiver import TransportReceiver
from repro.transport.sender import TransportSender
from repro.transport.timing import SenderTiming


class LoopbackEndpoint(DatagramEndpoint):
    """Captures transmitted datagrams for inspection / manual delivery."""

    def __init__(self, is_server=False):
        super().__init__(NullSession(), is_server=is_server)
        self.sent: list[bytes] = []
        self.set_remote_addr("peer")
        self._fake_srtt = 100.0

    def _transmit(self, raw, now):
        self.sent.append(raw)

    # Simplify timing for tests.
    @property
    def srtt(self):
        return self._fake_srtt

    @property
    def has_rtt_sample(self):
        return True

    def rto(self):
        return 100.0


Sent = namedtuple("Sent", "old_num new_num ack_num throwaway_num diff")


def sent_instructions(endpoint):
    from repro.transport.fragment import FragmentAssembly

    assembly = FragmentAssembly()
    out = []
    for raw in endpoint.sent:
        message = NullSession().decrypt(raw)
        payload = message.text[4:]  # skip the 2+2 byte timestamps
        encoded = assembly.add_fragment(payload)
        if encoded:
            out.append(Sent(*decode_instruction(encoded)))
    return out


def make_sender(timing=None):
    endpoint = LoopbackEndpoint()
    sender = TransportSender(endpoint, UserStream(), timing or SenderTiming())
    return endpoint, sender


class TestSenderBasics:
    def test_no_send_before_remote_known(self):
        endpoint = LoopbackEndpoint()
        endpoint._remote_addr = None
        sender = TransportSender(endpoint, UserStream())
        sender.state.push_event(UserBytes(b"a"))
        sender.tick(0.0)
        assert endpoint.sent == []

    def test_state_change_sent_after_mindelay(self):
        endpoint, sender = make_sender()
        sender.tick(0.0)  # initial empty ack
        endpoint.sent.clear()
        sender.state.push_event(UserBytes(b"a"))
        sender.tick(100.0)  # first tick: starts the collection interval
        sender.tick(100.0 + sender.timing.send_mindelay_ms)
        instructions = sent_instructions(endpoint)
        assert any(i.diff for i in instructions)

    def test_keystroke_diff_contains_event(self):
        endpoint, sender = make_sender()
        sender.state.push_event(UserBytes(b"Z"))
        sender.tick(0.0)
        sender.tick(1000.0)
        instructions = sent_instructions(endpoint)
        data = b"".join(i.diff for i in instructions)
        assert b"Z" in data

    def test_heartbeat_when_idle(self):
        endpoint, sender = make_sender()
        sender.tick(0.0)  # connection-opening empty ack
        count = len(endpoint.sent)
        sender.tick(sender.timing.heartbeat_interval_ms + 1.0)
        assert len(endpoint.sent) > count

    def test_wait_time_reflects_ack_timer(self):
        endpoint, sender = make_sender()
        sender.tick(0.0)
        wait = sender.wait_time(1.0)
        assert wait is not None
        assert wait <= sender.timing.heartbeat_interval_ms


class TestPacing:
    def test_frame_rate_is_half_srtt(self):
        timing = SenderTiming()
        assert timing.send_interval(100.0) == 50.0
        assert timing.send_interval(10.0) == 20.0  # 50 Hz cap
        assert timing.send_interval(10_000.0) == 250.0  # max interval

    def test_rapid_changes_coalesce(self):
        """Many quick state changes produce few instructions."""
        endpoint, sender = make_sender()
        sender.tick(0.0)
        endpoint.sent.clear()
        t = 1000.0
        for i in range(50):
            sender.state.push_event(UserBytes(b"x"))
            sender.tick(t)
            t += 1.0  # 1 ms apart: inside one collection interval
        sender.tick(t + 300.0)
        instructions = [i for i in sent_instructions(endpoint) if i.diff]
        assert 1 <= len(instructions) <= 3


class TestAcks:
    def test_ack_processing_prunes_states(self):
        endpoint, sender = make_sender()
        for i in range(5):
            sender.state.push_event(UserBytes(b"k"))
            sender.tick(i * 300.0)
            sender.tick(i * 300.0 + 10.0)
        nums = [s.num for s in sender._sent_states]
        sender.process_acknowledgment_through(max(nums), now=10_000.0)
        assert sender._sent_states[0].num == max(nums)

    def test_delayed_ack_timer(self):
        endpoint, sender = make_sender()
        sender.tick(0.0)
        endpoint.sent.clear()
        sender.set_data_ack(now=100.0)
        sender.tick(100.0)  # not due yet
        before = len(endpoint.sent)
        sender.tick(100.0 + sender.timing.ack_delay_ms)
        assert len(endpoint.sent) > before
        assert sender.empty_acks_sent >= 1


class TestReceiver:
    def test_apply_creates_state(self):
        recv = TransportReceiver(UserStream())
        diff = UserBytes(b"a").encode()
        assert recv.process_instruction(0, 1, diff)
        assert recv.latest_num == 1
        assert recv.latest_state.total_count == 1

    def test_duplicate_ignored(self):
        recv = TransportReceiver(UserStream())
        inst = (0, 1, UserBytes(b"a").encode())
        assert recv.process_instruction(*inst)
        assert not recv.process_instruction(*inst)
        assert recv.duplicates_ignored == 1
        assert recv.latest_state.total_count == 1

    def test_missing_base_ignored(self):
        recv = TransportReceiver(UserStream())
        assert not recv.process_instruction(5, 6, b"")
        assert recv.unusable_ignored == 1

    def test_out_of_order_applies_when_base_arrives(self):
        recv = TransportReceiver(UserStream())
        first = (0, 1, UserBytes(b"a").encode())
        second = (1, 2, UserBytes(b"b").encode())
        assert not recv.process_instruction(*second)  # base missing
        assert recv.process_instruction(*first)
        assert recv.process_instruction(*second)
        assert recv.latest_state.total_count == 2

    def test_throwaway_prunes_but_keeps_latest(self):
        recv = TransportReceiver(UserStream())
        recv.process_instruction(0, 1, UserBytes(b"a").encode())
        recv.process_instruction(1, 2, UserBytes(b"b").encode())
        recv.process_throwaway_until(2)
        assert recv.known_nums() == [2]

    def test_malformed_diff_raises_and_stores_nothing(self):
        recv = TransportReceiver(UserStream())
        recv.process_instruction(0, 1, UserBytes(b"a").encode())
        with pytest.raises(StateError):
            recv.process_instruction(1, 2, b"\xff")
        assert recv.malformed_ignored == 1
        assert recv.known_nums() == [0, 1]
        assert recv.latest_state.total_count == 1
        # The next good instruction from the same base still applies.
        assert recv.process_instruction(1, 2, UserBytes(b"b").encode())
        assert recv.latest_state.total_count == 2

    def test_empty_diff_clones_state(self):
        recv = TransportReceiver(UserStream())
        recv.process_instruction(0, 1, UserBytes(b"a").encode())
        assert recv.process_instruction(1, 2, b"")
        assert recv.latest_state.total_count == 1
        assert recv.latest_num == 2


class TestSendLogRing:
    def test_send_log_is_bounded_by_default(self):
        from repro.transport.sender import SEND_LOG_MAX

        _, sender = make_sender()
        assert sender.send_log.maxlen == SEND_LOG_MAX

    def test_overflow_drops_oldest_and_keeps_newest(self):
        from collections import deque

        endpoint, sender = make_sender()
        sender.record_send_log = True
        sender.send_log = deque(maxlen=4)
        t = 0.0
        sender.tick(t)  # hello
        for i in range(8):
            sender.state.push_event(UserBytes(bytes([65 + i])))
            t += 200.0
            sender.tick(t)
            t += sender.timing.send_mindelay_ms
            sender.tick(t)
        assert len(sender.send_log) == 4
        nums = [num for _, num, _ in sender.send_log]
        assert nums == sorted(nums)
        # The newest send survives; the earliest ones were evicted.
        assert nums[-1] == max(nums)
        assert nums[0] > 1


class TestDelayedDataAck:
    def test_first_data_ack_waits_the_full_delay(self):
        # Regression: _next_ack_time starts at 0.0 and used to be only
        # min()-ed, so the first data ack of a session fired immediately
        # instead of waiting ack_delay_ms for a piggyback opportunity.
        endpoint, sender = make_sender()
        sender.tick(0.0)  # hello / initial empty ack
        endpoint.sent.clear()
        sender.set_data_ack(500.0)
        assert sender._next_ack_time == 500.0 + sender.timing.ack_delay_ms
        sender.tick(500.0)
        assert endpoint.sent == []  # nothing due yet
        assert sender.wait_time(500.0) == sender.timing.ack_delay_ms
        sender.tick(500.0 + sender.timing.ack_delay_ms)
        assert len(endpoint.sent) == 1  # the delayed ack went out

    def test_earlier_pending_deadline_is_not_postponed(self):
        _, sender = make_sender()
        sender.tick(0.0)
        sender.set_data_ack(500.0)
        first_deadline = sender._next_ack_time
        sender.set_data_ack(550.0)  # still covered by the live deadline
        assert sender._next_ack_time == first_deadline

    def test_deadline_tying_with_new_data_is_due(self):
        # Regression: data landing on the instant its pending ack falls
        # due used to push the deadline another ack_delay out, every
        # time, so steady one-way data was never acknowledged.
        endpoint, sender = make_sender()
        sender.tick(0.0)
        endpoint.sent.clear()
        sender.set_data_ack(500.0)
        deadline = sender._next_ack_time
        sender.set_data_ack(deadline)
        assert sender._next_ack_time == deadline
        sender.tick(deadline)
        assert len(endpoint.sent) == 1

    def test_initial_deadline_is_not_live(self):
        # The constructor's 0.0 deadline is no deadline: data arriving at
        # t=0, before any tick, still waits the full ack delay.
        endpoint, sender = make_sender()
        sender.set_data_ack(0.0)
        sender.tick(0.0)
        assert endpoint.sent == []
        sender.tick(sender.timing.ack_delay_ms)
        assert len(endpoint.sent) == 1


class TestTickDeadline:
    def test_tick_returns_the_wait_wait_time_reports(self):
        endpoint, sender = make_sender()
        times = [0.0, 5.0, 30.0, 31.0, 90.0, 400.0, 3500.0]
        for i, now in enumerate(times):
            if i % 2:
                sender.state.push_event(UserBytes(b"k"))
            wait = sender.tick(now)
            idle = sender.last_wait_idle
            assert wait == sender.wait_time(now)
            assert idle == sender.last_wait_idle
        assert endpoint.sent

    def test_idle_without_peer(self):
        endpoint, sender = make_sender()
        endpoint.set_remote_addr(None)
        assert sender.tick(0.0) is None
        assert sender.last_wait_idle


class TestDiffMemoization:
    def test_repeated_diff_hits_cache_with_identical_bytes(self):
        _, sender = make_sender()
        sender.state.push_event(UserBytes(b"a"))
        src = sender._sent_states[0].state
        first = sender._diff_between(src)
        assert sender.diff_cache_misses == 1
        second = sender._diff_between(src)
        assert sender.diff_cache_hits == 1
        fresh = sender.state.diff_from(src)
        assert first == second == fresh
        assert first  # non-empty: the event is actually in the diff

    def test_cache_is_bounded(self):
        from repro.transport.sender import _DIFF_CACHE_MAX

        _, sender = make_sender()
        src = sender._sent_states[0].state
        for _ in range(_DIFF_CACHE_MAX + 10):
            sender.state.push_event(UserBytes(b"x"))
            sender._diff_between(src)
        assert len(sender._diff_cache) <= _DIFF_CACHE_MAX
