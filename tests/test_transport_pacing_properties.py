"""Property-based pacing invariants of the transport sender.

These encode §2.3's timing rules as properties over randomized workloads:
frames are never sent closer together than the frame interval, the
collection interval delays the first frame after a quiet period, and the
sender never holds more than roughly one instruction in flight.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.session import NullSession
from repro.input.events import UserBytes
from repro.input.userstream import UserStream
from repro.network.interface import DatagramEndpoint
from repro.transport.sender import TransportSender
from repro.transport.timing import SenderTiming


class PacedEndpoint(DatagramEndpoint):
    """Records send times; reports a configurable SRTT."""

    def __init__(self, srtt: float = 100.0):
        super().__init__(NullSession(), is_server=False)
        self.set_remote_addr("peer")
        self.sent_at: list[float] = []
        self._srtt_value = srtt

    def _transmit(self, raw, now):
        self.sent_at.append(now)

    @property
    def srtt(self):
        return self._srtt_value

    @property
    def has_rtt_sample(self):
        return True

    def rto(self):
        return max(50.0, self._srtt_value)


def drive(sender, endpoint, keystroke_times, tick_step=1.0, tail=2000.0):
    """Feed keystrokes at given times, ticking the sender densely."""
    if not keystroke_times:
        end = tail
    else:
        end = max(keystroke_times) + tail
    pending = sorted(keystroke_times)
    t = 0.0
    i = 0
    while t <= end:
        while i < len(pending) and pending[i] <= t:
            sender.state.push_event(UserBytes(b"k"))
            i += 1
        sender.tick(t)
        t += tick_step
    return endpoint.sent_at


class TestFrameRate:
    @settings(max_examples=25, deadline=None)
    @given(
        srtt=st.floats(10.0, 2000.0),
        times=st.lists(st.floats(0.0, 3000.0), min_size=1, max_size=40),
    )
    def test_data_frames_respect_send_interval(self, srtt, times):
        """Consecutive *new-state* sends are >= the frame interval apart.

        (Acks and heartbeats may interleave; the workload below is pure
        input so every send after the first carries data or is the
        connection-opening ack.)
        """
        timing = SenderTiming()
        endpoint = PacedEndpoint(srtt)
        sender = TransportSender(endpoint, UserStream(), timing)
        sent = drive(sender, endpoint, times)
        interval = timing.send_interval(srtt)
        data_sends = sent[1:]  # skip the connection-opening empty ack
        gaps = [b - a for a, b in zip(data_sends, data_sends[1:])]
        # Heartbeats (3 s) are always >= interval; tolerate float fuzz.
        assert all(g >= interval - 1.0 for g in gaps), (interval, gaps)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 60))
    def test_burst_coalesces_to_few_frames(self, burst):
        """A 1 ms-spaced burst fits in a handful of frames, not one per key."""
        endpoint = PacedEndpoint(200.0)
        sender = TransportSender(endpoint, UserStream(), SenderTiming())
        sender.tick(0.0)
        endpoint.sent_at.clear()
        times = [1000.0 + i for i in range(burst)]
        sent = drive(sender, endpoint, times)
        duration = burst * 1.0
        interval = SenderTiming().send_interval(200.0)
        allowed = 2 + int(duration / interval) + 2
        assert len(sent) <= allowed


class TestCollectionInterval:
    @settings(max_examples=20, deadline=None)
    @given(mindelay=st.floats(1.0, 60.0))
    def test_first_frame_waits_mindelay(self, mindelay):
        timing = SenderTiming(send_mindelay_ms=mindelay)
        endpoint = PacedEndpoint(100.0)
        sender = TransportSender(endpoint, UserStream(), timing)
        # Keep timers serviced so no ack/heartbeat is due at the moment
        # the keystroke lands (a due ack legitimately flushes the diff
        # early — Mosh's piggyback rule).
        t = 0.0
        while t < 5000.0:
            sender.tick(t)
            t += 50.0
        endpoint.sent_at.clear()
        sender.state.push_event(UserBytes(b"x"))
        t = 5000.0
        while t < 5000.0 + mindelay + 50.0:
            sender.tick(t)
            t += 0.25
        first = endpoint.sent_at[0] - 5000.0
        assert mindelay - 0.5 <= first <= mindelay + 1.0


class TestInFlightBound:
    @settings(max_examples=15, deadline=None)
    @given(
        times=st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=60),
        srtt=st.floats(40.0, 1000.0),
    )
    def test_about_one_instruction_in_flight(self, times, srtt):
        """'There is about one Instruction in flight ... at any time':
        within any SRTT window, at most a few sends occur (frame interval
        = SRTT/2 plus ack/heartbeat traffic)."""
        endpoint = PacedEndpoint(srtt)
        sender = TransportSender(endpoint, UserStream(), SenderTiming())
        sent = drive(sender, endpoint, times)
        for i, start in enumerate(sent):
            in_window = [s for s in sent[i:] if s < start + srtt]
            assert len(in_window) <= 4


class TestHeartbeat:
    def test_idle_connection_heartbeats_every_3s(self):
        endpoint = PacedEndpoint(100.0)
        sender = TransportSender(endpoint, UserStream(), SenderTiming())
        drive(sender, endpoint, [], tail=20_000.0, tick_step=5.0)
        gaps = [b - a for a, b in zip(endpoint.sent_at, endpoint.sent_at[1:])]
        assert gaps, "no heartbeats at all"
        for gap in gaps:
            assert 2500.0 <= gap <= 3600.0


class TestAckDeadline:
    @pytest.mark.parametrize("interval", [10.0, 20.0, 25.0, 50.0])
    def test_one_way_data_is_acked_within_ack_delay_plus_one_frame(
        self, interval
    ):
        """Mosh's rule: once data is pending, its ack deadline only moves
        earlier, and a deadline that ties with ``now`` is due. The
        intervals divide ACK_DELAY, so data lands on the very instant the
        deadline falls due, ahead of that instant's tick."""
        timing = SenderTiming()
        endpoint = PacedEndpoint(100.0)
        sender = TransportSender(endpoint, UserStream(), timing)
        sender.tick(0.0)  # the connection-opening empty ack
        endpoint.sent_at.clear()
        first = 1000.0
        # Tick the way the pump does: at each data arrival (after noting
        # the data) and at the deadline the previous tick reported.
        t = first
        next_data = first
        while t <= first + 1000.0 and not endpoint.sent_at:
            if t == next_data:
                sender.set_data_ack(t)
                next_data += interval
            sender.tick(t)
            t = min(next_data, t + sender.wait_time(t))
        assert endpoint.sent_at, "the data was never acknowledged"
        delay = endpoint.sent_at[0] - first
        assert timing.ack_delay_ms <= delay <= timing.ack_delay_ms + interval
