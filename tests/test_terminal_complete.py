"""Complete: the synchronized terminal object with echo acks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StateError
from repro.terminal.complete import ECHO_TIMEOUT_MS, Complete


class TestStateObject:
    def test_diff_apply_roundtrip(self):
        a = Complete(40, 10)
        b = a.copy()
        b.act(b"hello \x1b[1mbold\x1b[0m")
        a.apply_diff(b.diff_from(a))
        assert a == b

    def test_diff_from_self_empty(self):
        c = Complete(40, 10)
        c.act(b"content")
        assert c.diff_from(c) == b""

    def test_copy_is_independent(self):
        a = Complete(40, 10)
        b = a.copy()
        b.act(b"changed")
        assert a != b
        assert a.fb.screen_text().strip() == ""

    def test_equality_includes_echo_ack(self):
        a = Complete(10, 3)
        b = a.copy()
        b.echo_ack = 5
        assert a != b

    def test_equality_includes_bell(self):
        a = Complete(10, 3)
        b = a.copy()
        b.act(b"\x07")
        assert a != b
        a.apply_diff(b.diff_from(a))
        assert a == b
        assert a.fb.bell_count == 1

    def test_fingerprint_changes_on_act(self):
        c = Complete(10, 3)
        before = c.fingerprint()
        c.act(b"x")
        assert c.fingerprint() != before

    def test_fingerprint_preserved_by_copy(self):
        c = Complete(10, 3)
        c.act(b"x")
        assert c.copy().fingerprint() == c.fingerprint()

    def test_copy_starts_with_no_character_to_repeat(self):
        # A snapshot's parser is fresh, so REP (CSI b) before any print
        # does nothing instead of repeating the live terminal's last
        # character, which no diff carries.
        c = Complete(10, 3)
        c.act(b"x")
        dup = c.copy()
        dup.act(b"\x1b[3b")
        assert dup.fb.screen_text() == c.fb.screen_text()
        assert dup.fb == c.fb

    def test_unknown_section_rejected(self):
        c = Complete(10, 3)
        with pytest.raises(StateError):
            c.apply_diff(b"\x63\x00\x00\x00\x00")

    def test_truncated_diff_rejected(self):
        c = Complete(10, 3)
        with pytest.raises(StateError):
            c.apply_diff(b"\x02\x00\x00\x00\x10abc")


class TestResizeSync:
    def test_resize_travels_in_diff(self):
        a = Complete(40, 10)
        b = a.copy()
        b.resize(60, 20)
        b.act(b"after resize")
        a.apply_diff(b.diff_from(a))
        assert (a.fb.width, a.fb.height) == (60, 20)
        assert a == b

    def test_shrink_then_content(self):
        a = Complete(40, 10)
        a.act(b"wide content here")
        b = a.copy()
        b.resize(20, 5)
        a.apply_diff(b.diff_from(a))
        assert a == b


class TestEchoAck:
    def test_advances_after_timeout(self):
        c = Complete(10, 3)
        c.register_input(1, now=1000.0)
        assert not c.set_echo_ack(now=1000.0 + ECHO_TIMEOUT_MS - 1)
        assert c.echo_ack == 0
        assert c.set_echo_ack(now=1000.0 + ECHO_TIMEOUT_MS)
        assert c.echo_ack == 1

    def test_covers_multiple_inputs(self):
        c = Complete(10, 3)
        c.register_input(1, 0.0)
        c.register_input(2, 10.0)
        c.register_input(3, 200.0)
        assert c.set_echo_ack(100.0)
        assert c.echo_ack == 2

    def test_returns_retired_arrival_times(self):
        c = Complete(10, 3)
        c.register_input(1, 0.0)
        c.register_input(2, 10.0)
        c.register_input(3, 200.0)
        assert c.set_echo_ack(100.0) == [0.0, 10.0]
        assert c.set_echo_ack(200.0) == []
        assert c.set_echo_ack(250.0) == [200.0]

    def test_next_echo_ack_time(self):
        c = Complete(10, 3)
        assert c.next_echo_ack_time() is None
        c.register_input(1, 500.0)
        when = c.next_echo_ack_time()
        # Strictly after the threshold (float-safe), but only barely.
        assert 500.0 + ECHO_TIMEOUT_MS < when <= 500.0 + ECHO_TIMEOUT_MS + 1.0
        assert c.set_echo_ack(when)

    def test_echo_ack_synchronizes(self):
        a = Complete(10, 3)
        b = a.copy()
        b.register_input(4, 0.0)
        b.set_echo_ack(100.0)
        a.apply_diff(b.diff_from(a))
        assert a.echo_ack == 4

    def test_no_change_returns_false(self):
        c = Complete(10, 3)
        assert not c.set_echo_ack(1e9)


class TestTerminalReplies:
    def test_cpr_flows_to_outbox(self):
        c = Complete(10, 3)
        c.act(b"\x1b[6n")
        assert c.drain_terminal_replies() == b"\x1b[1;1R"
        assert c.drain_terminal_replies() == b""


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [
                b"text",
                b"\x1b[2J",
                b"\x1b[5;5Hmid",
                b"\x1b[31mred",
                b"\r\nnext",
                b"\x07",
                b"\x1b]0;t\x07",
                b"\x1b[?25l",
            ]
        ),
        min_size=1,
        max_size=8,
    )
)
def test_diff_roundtrip_property(chunks):
    """The SSP law for terminal states, from any intermediate snapshot."""
    base = Complete(30, 6)
    mirror = base.copy()
    for i, chunk in enumerate(chunks):
        base.act(chunk)
        if i == len(chunks) // 2:
            mirror.apply_diff(base.diff_from(mirror))
            assert mirror == base
    mirror.apply_diff(base.diff_from(mirror))
    assert mirror == base
