"""Scrollback history (the paper's §2 future-work feature, server-side)."""

from repro.terminal.complete import Complete
from repro.terminal.emulator import Emulator


class TestScrollbackCollection:
    def test_lines_scrolled_off_are_kept(self):
        e = Emulator(20, 3)
        e.write(b"one\r\ntwo\r\nthree\r\nfour\r\nfive")
        assert e.fb.scrollback_text() == ["one", "two"]

    def test_last_n(self):
        e = Emulator(20, 2)
        e.write(b"\r\n".join(str(i).encode() for i in range(10)))
        assert e.fb.scrollback_text(3) == ["5", "6", "7"]

    def test_limit_enforced(self):
        e = Emulator(10, 2)
        e.fb.scrollback_limit = 5
        e.write(b"\r\n".join(b"x%d" % i for i in range(30)))
        assert len(e.fb.scrollback) == 5

    def test_alternate_screen_excluded(self):
        """Full-screen programs (editors) must not pollute history."""
        e = Emulator(20, 3)
        e.write(b"shell line\r\n\r\n\r\n")  # one line into scrollback
        before = list(e.fb.scrollback_text())
        e.write(b"\x1b[?1049h")  # editor starts
        e.write(b"a\r\n" * 10)  # scrolls inside the alt screen
        e.write(b"\x1b[?1049l")
        assert e.fb.scrollback_text() == before

    def test_region_scroll_excluded(self):
        """Scrolling a partial region (chat log panes) is not history."""
        e = Emulator(20, 5)
        e.write(b"\x1b[2;4r")  # region rows 2-4
        e.write(b"\x1b[4;1H\n\n\n")
        assert e.fb.scrollback_text() == []

    def test_ris_clears_history(self):
        e = Emulator(20, 2)
        e.write(b"a\r\nb\r\nc")
        e.write(b"\x1bc")
        assert e.fb.scrollback_text() == []

    def test_ed3_erases_saved_lines_only(self):
        """xterm's ED 3 ("Erase Saved Lines") clears history and leaves
        the screen, the cursor and a pending autowrap alone."""
        e = Emulator(4, 2)
        e.write(b"a\r\nb\r\ncdef")
        assert e.fb.scrollback_text() == ["a"]
        before = e.fb.copy()
        e.write(b"\x1b[3J")
        assert e.fb.scrollback_text() == []
        assert e.fb == before
        assert e.fb.next_print_wraps
        e.write(b"g")  # the pending wrap still happens
        assert [e.fb.row_text(r).rstrip() for r in range(2)] == ["cdef", "g"]

    def test_ed3_on_a_snapshot_is_harmless(self):
        terminal = Complete(20, 3)
        terminal.act(b"1\r\n2\r\n3\r\n4")
        snapshot = terminal.copy()
        snapshot.act(b"\x1b[3J")
        assert snapshot.fb.scrollback is None
        assert snapshot == terminal

    def test_ed2_keeps_history(self):
        e = Emulator(20, 2)
        e.write(b"a\r\nb\r\nc\x1b[2J")
        assert e.fb.scrollback_text() == ["a"]
        assert e.fb.screen_text().strip() == ""


class TestScrollbackIsolation:
    def test_state_copies_do_not_collect(self):
        """Protocol snapshots must not carry or grow history."""
        terminal = Complete(20, 3)
        terminal.act(b"1\r\n2\r\n3\r\n4")
        snapshot = terminal.copy()
        assert snapshot.fb.scrollback is None
        snapshot.act(b"\r\nmore\r\nlines\r\nhere")  # would scroll
        assert snapshot.fb.scrollback is None

    def test_live_terminal_still_collects_after_copy(self):
        terminal = Complete(20, 3)
        terminal.act(b"1\r\n2\r\n3")
        terminal.copy()
        terminal.act(b"\r\n4\r\n5")
        assert "1" in terminal.fb.scrollback_text()

    def test_equality_ignores_scrollback(self):
        a = Complete(20, 3)
        b = a.copy()
        assert a.fb.scrollback == [] and b.fb.scrollback is None
        assert a == b
